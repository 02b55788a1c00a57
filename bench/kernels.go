package main

import (
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
	"ecodb/internal/sim"
)

// Kernels are workload-independent: each times one operator (through
// plan constructors and the compile entry point) or one expr batch
// routine over the same lineitem and orders tables, so a number here
// means the same thing under every workload's report.

// kernelReps is how often each kernel runs; the fastest run is reported,
// which is the usual reading for a CPU-bound loop on a shared box.
const kernelReps = 5

func kernelCtx() *exec.Ctx {
	return &exec.Ctx{CPU: cpu.New(cpu.E8500(), sim.NewClock()), Cost: engine.ProfileCommercial().Cost}
}

// drainNs compiles and drains p at the given worker count and returns the
// fastest of kernelReps runs.
func drainNs(p plan.Node, w int) float64 {
	return bestNs(func() {
		ctx := kernelCtx()
		exec.Drain(ctx, exec.CompileParallel(p, w), nil)
		ctx.Flush()
	})
}

func bestNs(run func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < kernelReps; i++ {
		t0 := time.Now()
		run()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best)
}

// kernelMetrics fills out with every operator and expr kernel, measured
// over li (lineitem) and ord (orders).
func kernelMetrics(li, ord *catalog.Table, out map[string]float64) {
	col := li.Schema.Col
	lit := func(v expr.Value) expr.Expr { return expr.Const{V: v} }
	cmp := expr.Cmp{Op: expr.LT, L: col("l_quantity"), R: lit(expr.Int(25))}
	// The ROADMAP's measured shape: a 3-term AND of column-vs-constant
	// comparisons, which falls off FilterBatch's single-comparison path.
	conj := expr.And{Terms: []expr.Expr{
		expr.Cmp{Op: expr.LT, L: col("l_quantity"), R: lit(expr.Int(45))},
		expr.Cmp{Op: expr.GE, L: col("l_extendedprice"), R: lit(expr.Float(1000))},
		expr.Cmp{Op: expr.GT, L: col("l_discount"), R: lit(expr.Float(0.01))},
	}}
	revenue := expr.Arith{Op: expr.Mul, L: col("l_extendedprice"),
		R: expr.Arith{Op: expr.Sub, L: lit(expr.Float(1)), R: col("l_discount")}}
	project := plan.NewProject(plan.NewScan(li, nil),
		[]expr.Expr{revenue, col("l_orderkey")},
		[]string{"revenue", "l_orderkey"}, []expr.Kind{expr.KindFloat, expr.KindInt})
	groupCols := []int{li.Schema.MustIndex("l_quantity")}

	plans := map[string]plan.Node{
		"exec.scan_ns_per_row":          plan.NewScan(li, nil),
		"exec.filter_cmp_ns_per_row":    plan.NewScan(li, cmp),
		"exec.filter_conj_ns_per_row":   plan.NewScan(li, conj),
		"exec.project_arith_ns_per_row": project,
		"exec.agg_ns_per_row": plan.NewAgg(plan.NewScan(li, nil), groupCols, []plan.AggSpec{
			{Func: plan.Sum, Arg: revenue, Name: "revenue"},
			{Func: plan.Avg, Arg: revenue, Name: "avg_revenue"},
			{Func: plan.Count, Name: "n"},
		}),
		// Build-heavy: all of lineitem on the build side, a handful of
		// orders probing it.
		"exec.join_build_ns_per_row": plan.NewHashJoin(
			plan.NewScan(li, nil),
			plan.NewScan(ord, expr.Cmp{Op: expr.LE, L: ord.Schema.Col("o_orderkey"), R: lit(expr.Int(4))}),
			li.Schema.MustIndex("l_orderkey"), ord.Schema.MustIndex("o_orderkey"), nil),
		// Probe-heavy: orders built once, every lineitem row probes and
		// matches exactly one order.
		"exec.join_probe_ns_per_row": plan.NewHashJoin(
			plan.NewScan(ord, nil), plan.NewScan(li, nil),
			ord.Schema.MustIndex("o_orderkey"), li.Schema.MustIndex("l_orderkey"), nil),
		"exec.sort_ns_per_row": plan.NewSort(project, plan.SortKey{Col: 0, Desc: true}),
	}
	rows := float64(li.Heap.NumRows())
	for _, name := range kernelNames {
		out[name+".w1"] = drainNs(plans[name], 1) / rows
		out[name+".wN"] = drainNs(plans[name], workers()) / rows
	}

	// Two consumers riding one circular pass, pulled round-robin: the
	// shape of a co-admitted pair. Per row per consumer.
	out["exec.sharedscan_ns_per_row"] = bestNs(func() {
		ctx := kernelCtx()
		coord := scanshare.NewCoordinator(li.Heap, li.Name, nil)
		ops := [clients]exec.Operator{}
		for k := range ops {
			ops[k] = exec.NewSharedScan(coord, li, conj)
			ops[k].Open(ctx)
		}
		for live := len(ops); live > 0; {
			for k, op := range ops {
				if op == nil {
					continue
				}
				if b, _ := op.Next(ctx); b == nil {
					op.Close(ctx)
					ops[k] = nil
					live--
				}
			}
		}
		ctx.Flush()
	}) / rows / clients

	// expr routines on one page-sized batch, repeated to fill a
	// measurable interval.
	page := &li.Heap.Page(0).Data
	const rounds = 200
	perRow := func(run func()) float64 {
		return bestNs(func() {
			for i := 0; i < rounds; i++ {
				run()
			}
		}) / rounds / float64(page.N)
	}
	var (
		meter expr.Cost
		sel   []int32
		vec   expr.ColVec
		keys  expr.GroupKeys
	)
	out["expr.filter_cmp_ns_per_row"] = perRow(func() { sel = expr.FilterBatch(cmp, page, sel, &meter) })
	out["expr.filter_conj_ns_per_row"] = perRow(func() { sel = expr.FilterBatch(conj, page, sel, &meter) })
	out["expr.eval_arith_ns_per_row"] = perRow(func() { expr.EvalBatch(revenue, page, &vec, &meter) })
	out["expr.groupkeys_ns_per_row"] = perRow(func() { keys.Build(page, groupCols) })

	out["obsv.metrics_render_us"] = bestNs(func() { _ = obsv.Default().Snapshot().Text() }) / 1e3
}
