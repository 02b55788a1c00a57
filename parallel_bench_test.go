// Benchmarks for the morsel-driven parallel executor, measuring real Go
// wall-clock (ns/op). Simulated durations and joules are worker-count
// invariant by design — the coordinator replays all simulated accounting
// in page order — so the only thing workers change, and the thing measured
// here, is how fast the host machine races through the query's real work
// (the paper's energy argument: finishing sooner is what saves joules).
package main

import (
	"fmt"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// BenchmarkParallelScan runs a filtered TPC-H-style lineitem scan through
// the morsel dispatcher at increasing worker counts. workers=1 is the
// serial pull pipeline (CompileParallel falls back to Compile). The
// predicate is an AND chain, which walks the interpreted evaluator per row
// — the worker-side compute the dispatcher exists to spread across cores.
// Expect ≥1.5× at 4 workers on a ≥4-core host; single-core hosts (CI
// smoke runs under constrained runners) see no speedup, only unchanged
// results.
func BenchmarkParallelScan(b *testing.B) {
	tb := benchTable(b)
	pred := expr.And{Terms: []expr.Expr{
		expr.Cmp{Op: expr.LT, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(45)}},
		expr.Cmp{Op: expr.GE, L: tb.Schema.Col("l_extendedprice"), R: expr.Const{V: expr.Float(1000)}},
		expr.Cmp{Op: expr.GT, L: tb.Schema.Col("l_discount"), R: expr.Const{V: expr.Float(0.01)}},
	}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				rows = 0
				op := exec.CompileParallel(plan.NewScan(tb, pred), workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					rows += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkParallelAgg runs the Q1-shaped pricing-summary aggregation —
// grouped SUM/AVG of l_extendedprice·(1−l_discount) — through the parallel
// pre-aggregation path at increasing worker counts. Workers run the scan
// fragment AND fold their morsels into partial group tables (column-wise
// key encoding, batch-wise argument evaluation); the coordinator only
// merges per-morsel partials in page order. This is the aggregation-heavy
// analytical shape that dominates the energy bill, and the acceptance bar
// is ≥1.5× at 4 workers on a ≥4-core host; simulated results, durations,
// and joules stay bit-identical at every worker count (see
// TestParallelMatchesSerialBitIdentically). Single-core hosts see no
// speedup, only unchanged results.
func BenchmarkParallelAgg(b *testing.B) {
	tb := benchTable(b)
	price := tb.Schema.Col("l_extendedprice")
	disc := tb.Schema.Col("l_discount")
	revenue := expr.Arith{Op: expr.Mul, L: price,
		R: expr.Arith{Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: disc}}
	p := plan.NewAgg(
		plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(45)}}),
		[]int{tb.Schema.MustIndex("l_quantity")},
		[]plan.AggSpec{
			{Func: plan.Sum, Arg: revenue, Name: "revenue"},
			{Func: plan.Avg, Arg: revenue, Name: "avg_revenue"},
			{Func: plan.Count, Name: "n"},
		})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var groups int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				groups = 0
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					groups += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// benchJoinTables loads the lineitem + supplier pair for the join-build
// benchmark.
func benchJoinTables(b *testing.B) (build, probe *catalog.Table) {
	b.Helper()
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.02, 42).Load(cat, tpch.Lineitem, tpch.Supplier)
	return cat.MustTable(tpch.Lineitem), cat.MustTable(tpch.Supplier)
}

// BenchmarkJoinBuild measures the hash-join build: the whole lineitem
// table on the build side — a morsel-parallel scan copied columnar into the
// join's one owned batch, then one typed index over its key column —
// against a deliberately tiny probe, so build cost dominates. The index is
// built on one goroutine (the partitioned build did not beat it once the
// table was typed), so workers change only the scan feeding it; simulated
// accounting is worker-count invariant.
func BenchmarkJoinBuild(b *testing.B) {
	li, supp := benchJoinTables(b)
	probe := plan.NewScan(supp, expr.Cmp{
		Op: expr.LE, L: supp.Schema.Col("s_suppkey"), R: expr.Const{V: expr.Int(4)}})
	p := plan.NewHashJoin(
		plan.NewScan(li, nil), probe,
		li.Schema.MustIndex("l_suppkey"), supp.Schema.MustIndex("s_suppkey"), nil)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				rows = 0
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					rows += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkParallelSort runs an ORDER BY revenue DESC over a projected
// lineitem fragment through the parallel sort: workers run the fragment,
// copy survivors into run-local buffers, and sort each run by
// (keys, global ordinal); the coordinator merges the sorted runs with a
// loser tree. The per-row comparator work — the dominant cost of a
// one-run sort — moves worker-side, so the acceptance bar is ≥1.5× at 4
// workers on a ≥4-core host; output order, simulated durations, and
// joules stay bit-identical at every worker count (see the sort plans in
// TestParallelMatchesSerialBitIdentically). Single-core hosts see no
// speedup, only unchanged results.
func BenchmarkParallelSort(b *testing.B) {
	tb := benchTable(b)
	price := tb.Schema.Col("l_extendedprice")
	disc := tb.Schema.Col("l_discount")
	revenue := expr.Arith{Op: expr.Mul, L: price,
		R: expr.Arith{Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: disc}}
	p := plan.NewSort(
		plan.NewProject(
			plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{
				Op: expr.LT, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(45)}}),
			[]expr.Expr{revenue, tb.Schema.Col("l_orderkey")},
			[]string{"revenue", "l_orderkey"}, []expr.Kind{expr.KindFloat, expr.KindInt}),
		plan.SortKey{Col: 0, Desc: true})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				rows = 0
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					rows += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkJoinProbe measures the morsel-parallel hash-join probe: a tiny
// supplier build probed by the whole lineitem table on l_suppkey, so every
// probe row matches. Workers run the scan and the key lookups; the
// coordinator replays accounting and assembles every match's output row in
// morsel order. Simulated accounting is worker-count invariant.
func BenchmarkJoinProbe(b *testing.B) {
	li, supp := benchJoinTables(b)
	p := plan.NewHashJoin(
		plan.NewScan(supp, nil), plan.NewScan(li, nil),
		supp.Schema.MustIndex("s_suppkey"), li.Schema.MustIndex("l_suppkey"), nil)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				rows = 0
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					rows += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkSortLimit runs the served top-100 shape — ORDER BY
// l_extendedprice LIMIT 100 over a filtered, projected lineitem — where the
// Limit hands its bound down to the sort: every run keeps a 100-row heap
// and tests each row's key against its worst before copying anything, and
// the merge stops after 100 rows. The sort still consumes, and charges
// for, every surviving row.
func BenchmarkSortLimit(b *testing.B) {
	tb := benchTable(b)
	p := plan.NewLimit(plan.NewSort(
		plan.NewProject(
			plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{
				Op: expr.GE, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(5)}}),
			[]expr.Expr{tb.Schema.Col("l_orderkey"), tb.Schema.Col("l_extendedprice")},
			[]string{"l_orderkey", "l_extendedprice"}, []expr.Kind{expr.KindInt, expr.KindFloat}),
		plan.SortKey{Col: 1}), 100)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				rows = 0
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
					rows += int64(batch.Len())
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkParallelScanProject adds a projection stage to the fragment —
// per-row arithmetic plus output-row assembly that all runs worker-side.
func BenchmarkParallelScanProject(b *testing.B) {
	tb := benchTable(b)
	price := tb.Schema.Col("l_extendedprice")
	disc := tb.Schema.Col("l_discount")
	p := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{
			Op: expr.LT, L: tb.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(30)}}),
		[]expr.Expr{expr.Arith{Op: expr.Mul, L: price, R: expr.Arith{
			Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: disc}}},
		[]string{"revenue"}, []expr.Kind{expr.KindFloat})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := benchCtx()
				op := exec.CompileParallel(p, workers)
				if err := exec.Drain(ctx, op, nil); err != nil {
					b.Fatal(err)
				}
				ctx.Flush()
			}
		})
	}
}
