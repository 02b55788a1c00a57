// Benchmarks for the compressed-columnar-storage path, measuring real Go
// wall-clock. Unlike the columnar and parallel benchmarks — whose treated
// arms are charging-neutral — zone-map pruning also changes simulated
// charges (skipped pages cost a zone check instead of a read); what these
// benchmarks document is the real work the host machine no longer does.
package main

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// drainCount runs a fresh compile of p to exhaustion, with zone-map pruning
// as given, and returns the row count.
func drainCount(b *testing.B, p plan.Node, pruning bool) int64 {
	b.Helper()
	ctx := benchCtx()
	ctx.ZoneMapPruning = pruning
	var rows int64
	op := exec.CompileParallel(p, 1)
	if err := exec.Drain(ctx, op, func(batch *expr.Batch) error {
		rows += int64(batch.Len())
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	ctx.Flush()
	return rows
}

// BenchmarkZoneMapPrune measures a selective TPC-H-shaped range scan — a
// narrow l_orderkey band over lineitem, whose monotone key gives every heap
// page a tight disjoint zone — with pruning off versus on. The acceptance
// bar for the zone-map subsystem is ≥2× wall-clock on this path; with ~99%
// of pages skipped, observed is far above it.
func BenchmarkZoneMapPrune(b *testing.B) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.02, 42).Load(cat, tpch.Lineitem)
	t := cat.MustTable(tpch.Lineitem)
	band := plan.NewScan(t, expr.Between{
		E:  t.Schema.Col("l_orderkey"),
		Lo: expr.Int(2001),
		Hi: expr.Int(2301),
	})

	for _, arm := range []struct {
		name    string
		pruning bool
	}{{"unpruned", false}, {"pruned", true}} {
		b.Run(arm.name, func(b *testing.B) {
			var rows int64
			for i := 0; i < b.N; i++ {
				rows = drainCount(b, band, arm.pruning)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkDictFilter measures a string-equality scan over orders —
// o_orderstatus has three distinct values, so every page is dictionary
// fodder and none is prunable — on dense string pages versus
// dictionary-encoded ones, where FilterBatch compiles the predicate to an
// integer code comparison. Charges are identical by construction; the
// delta is the host-side cost of string compares the codes avoid.
func BenchmarkDictFilter(b *testing.B) {
	load := func(dict bool) *catalog.Table {
		cat := catalog.NewCatalog()
		tpch.NewGenerator(0.05, 42).Load(cat, tpch.Orders)
		t := cat.MustTable(tpch.Orders)
		if dict {
			t.Heap.CompressStrings()
		}
		return t
	}
	pred := func(t *catalog.Table) expr.Expr {
		return expr.Cmp{
			Op: expr.EQ,
			L:  t.Schema.Col("o_orderstatus"),
			R:  expr.Const{V: expr.String("P")},
		}
	}

	for _, arm := range []struct {
		name string
		dict bool
	}{{"dense", false}, {"dict", true}} {
		b.Run(arm.name, func(b *testing.B) {
			t := load(arm.dict)
			scan := plan.NewScan(t, pred(t))
			b.ResetTimer()
			var rows int64
			for i := 0; i < b.N; i++ {
				rows = drainCount(b, scan, false)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
