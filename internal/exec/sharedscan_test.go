package exec

import (
	"runtime"
	"testing"
	"time"

	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
	"ecodb/internal/sim"
)

func TestSharedScanSingleConsumerMatchesPrivateScan(t *testing.T) {
	tb := numbersTable(t, "t", 5000)
	pred := expr.Cmp{Op: expr.LT, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(1000)}}

	ctxPriv, clockPriv := testCtx()
	want := collect(t, CompileParallel(plan.NewScan(tb, pred), 1), ctxPriv)
	ctxPriv.Flush()

	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	ctxShared, clockShared := testCtx()
	got := collect(t, NewSharedScan(coord, tb, pred), ctxShared)
	ctxShared.Flush()

	if len(got) != len(want) {
		t.Fatalf("shared scan returned %d rows, private %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	// A shared scan driven alone charges exactly what the private scan
	// charges: identical simulated time.
	if clockShared.Now() != clockPriv.Now() {
		t.Fatalf("shared-alone time %v differs from private %v", clockShared.Now(), clockPriv.Now())
	}
	if coord.Attached() != 0 {
		t.Fatal("consumer not detached on Close")
	}
}

// N concurrent shared scans round-robined to completion: per-query rows
// bit-identical to private scans, page-stream cycles charged once per pass
// (not once per consumer), per-tuple compute charged per consumer.
func TestSharedScanChargesStreamOncePerPass(t *testing.T) {
	tb := numbersTable(t, "t", 5000)
	preds := []expr.Expr{
		expr.Cmp{Op: expr.LT, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(500)}},
		expr.Cmp{Op: expr.GE, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(4500)}},
		expr.Between{E: tb.Schema.Col("k"), Lo: expr.Int(1000), Hi: expr.Int(1200)},
	}

	// Private baseline: each query its own pass on its own machine.
	var wantRows [][]expr.Row
	var privStream float64
	for _, p := range preds {
		ctx, _ := testCtx()
		wantRows = append(wantRows, collect(t, CompileParallel(plan.NewScan(tb, p), 1), ctx))
		ctx.Flush()
		privStream += ctx.CPU.Stats().CyclesByKind[cpu.Stream]
	}

	// Shared: all three consumers on one machine, one coordinator.
	ctx, _ := testCtx()
	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	ops := make([]Operator, len(preds))
	for i, p := range preds {
		ops[i] = NewSharedScan(coord, tb, p)
		if err := ops[i].Open(ctx); err != nil {
			t.Fatal(err)
		}
	}
	gotRows := make([][]expr.Row, len(preds))
	remaining := len(ops)
	for remaining > 0 {
		for i, op := range ops {
			if op == nil {
				continue
			}
			b, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				ops[i].Close(ctx)
				ops[i] = nil
				remaining--
				continue
			}
			gotRows[i] = b.AppendRowsTo(gotRows[i])
		}
	}
	ctx.Flush()

	for qi := range preds {
		if len(gotRows[qi]) != len(wantRows[qi]) {
			t.Fatalf("query %d: %d rows shared vs %d private", qi, len(gotRows[qi]), len(wantRows[qi]))
		}
		for i := range gotRows[qi] {
			for c := range gotRows[qi][i] {
				if gotRows[qi][i][c] != wantRows[qi][i][c] {
					t.Fatalf("query %d row %d col %d differs", qi, i, c)
				}
			}
		}
	}

	st := coord.Stats()
	if st.PagesSurfaced != int64(tb.Heap.NumPages()) {
		t.Fatalf("pass surfaced %d pages, want %d (one pass)", st.PagesSurfaced, tb.Heap.NumPages())
	}
	if st.PagesDelivered != 3*st.PagesSurfaced {
		t.Fatalf("delivered %d, want 3×%d", st.PagesDelivered, st.PagesSurfaced)
	}
	// One I/O stream: the shared run's stream cycles are one pass's worth —
	// a third of what three private passes charged.
	sharedStream := ctx.CPU.Stats().CyclesByKind[cpu.Stream]
	if want := privStream / 3; sharedStream != want {
		t.Fatalf("shared stream cycles = %v, want one pass %v (private total %v)",
			sharedStream, want, privStream)
	}
	// N consumer fragments: per-tuple compute still charged per consumer —
	// the shared run's compute+stall cycles match the private total.
	shared := ctx.CPU.Stats().CyclesByKind
	var privCompute, privStall float64
	for _, p := range preds {
		c2, _ := testCtx()
		collect(t, CompileParallel(plan.NewScan(tb, p), 1), c2)
		c2.Flush()
		privCompute += c2.CPU.Stats().CyclesByKind[cpu.Compute]
		privStall += c2.CPU.Stats().CyclesByKind[cpu.MemStall]
	}
	if shared[cpu.Compute] != privCompute || shared[cpu.MemStall] != privStall {
		t.Fatalf("per-consumer cycles differ: shared %v/%v vs private %v/%v",
			shared[cpu.Compute], shared[cpu.MemStall], privCompute, privStall)
	}
}

// CompileLeaf lowers whole plans over shared leaves: a projection over a
// filtered shared scan must produce exactly what the private pipeline does.
func TestCompileLeafSharedPipeline(t *testing.T) {
	tb := numbersTable(t, "t", 3000)
	p := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{
			Op: expr.LT, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(100)}}),
		[]expr.Expr{expr.Arith{Op: expr.Add, L: tb.Schema.Col("v"), R: expr.Const{V: expr.Int(1)}}},
		[]string{"v1"}, []expr.Kind{expr.KindInt})

	ctx1, _ := testCtx()
	want := collect(t, CompileParallel(p, 1), ctx1)

	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	op := CompileLeaf(p, func(scan *plan.Scan) Operator {
		return NewSharedScan(coord, scan.Table, scan.Filter)
	})
	ctx2, _ := testCtx()
	got := collect(t, op, ctx2)

	if len(got) != len(want) {
		t.Fatalf("%d rows vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0] != want[i][0] {
			t.Fatalf("row %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	if coord.Stats().PagesSurfaced != int64(tb.Heap.NumPages()) {
		t.Fatal("shared leaf did not drive the pass")
	}
}

// A consumer closed mid-pass while its producers are pooled stops them and
// leaves the pass, and its neighbour on the pass — an aggregation, pooled
// too — returns the rows and charges the cycles it does when the consumer
// merely stops pulling and stays attached to the end.
func TestSharedScanEarlyCloseStopsProducers(t *testing.T) {
	const workers = 4
	// More pages than a claim window, so the producers cannot finish the
	// lap before the close.
	tb := pagedTable(t, pumpFixturePages(workers), 12)
	k, rows := tb.Schema.Col("k"), int64(12*tb.Heap.NumPages())
	scan := plan.NewScan(tb, expr.Cmp{Op: expr.GE, L: k, R: expr.Const{V: expr.Int(100)}})
	neighbour := plan.NewAgg(plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(5 * rows / 6)}}),
		nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}, {Func: plan.Sum, Arg: tb.Schema.Col("v"), Name: "s"}})

	type outcome struct {
		rows  []expr.Row
		stats cpu.Stats
		now   sim.Time
	}
	// run opens the consumer and its neighbour on one pass, pulls the
	// consumer pulls times, then either closes it or lets it idle while
	// the neighbour drains.
	run := func(pulls int, closeEarly bool) outcome {
		coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
		leaf := func(s *plan.Scan) Operator { return NewSharedScan(coord, s.Table, s.Filter) }
		ctxA, _ := testCtx()
		ctxB, clockB := testCtx()
		a, b := CompileShared(scan, workers, leaf), CompileShared(neighbour, workers, leaf)
		if err := a.Open(ctxA); err != nil {
			t.Fatal(err)
		}
		if err := b.Open(ctxB); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pulls; i++ {
			if batch, err := a.Next(ctxA); err != nil || batch == nil {
				t.Fatalf("pull %d: %v, %v", i, batch, err)
			}
		}
		if closeEarly {
			if err := a.Close(ctxA); err != nil {
				t.Fatal(err)
			}
			if coord.Attached() != 1 {
				t.Fatalf("%d consumers attached after the early close, want the neighbour alone", coord.Attached())
			}
		}
		var out outcome
		for {
			batch, err := b.Next(ctxB)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			out.rows = batch.AppendRowsTo(out.rows)
		}
		if err := b.Close(ctxB); err != nil {
			t.Fatal(err)
		}
		if !closeEarly {
			if err := a.Close(ctxA); err != nil {
				t.Fatal(err)
			}
		}
		if coord.Attached() != 0 {
			t.Fatalf("%d consumers still attached", coord.Attached())
		}
		ctxB.Flush()
		out.stats, out.now = ctxB.CPU.Stats(), clockB.Now()
		return out
	}

	before := runtime.NumGoroutine()
	for _, pulls := range []int{0, 3} {
		early, idle := run(pulls, true), run(pulls, false)
		if len(early.rows) != 1 || len(idle.rows) != 1 || early.rows[0][0] != idle.rows[0][0] || early.rows[0][1] != idle.rows[0][1] {
			t.Fatalf("pulls=%d: neighbour answered %v after the close, %v beside an idle consumer", pulls, early.rows, idle.rows)
		}
		if early.stats != idle.stats || early.now != idle.now {
			t.Fatalf("pulls=%d: neighbour charged %+v by %v after the close, %+v by %v beside an idle consumer",
				pulls, early.stats, early.now, idle.stats, idle.now)
		}
	}
	// Close waited for every producer's wg.Done; give the ones past it a
	// moment to finish exiting.
	after := runtime.NumGoroutine()
	for i := 0; i < 10000 && after != before; i++ {
		time.Sleep(100 * time.Microsecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Fatalf("%d goroutines after the runs, %d before", after, before)
	}
}

func TestSharedScanEmptyTable(t *testing.T) {
	tb := numbersTable(t, "empty", 0)
	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	ctx, _ := testCtx()
	rows := collect(t, NewSharedScan(coord, tb, nil), ctx)
	if len(rows) != 0 {
		t.Fatalf("empty table returned %d rows", len(rows))
	}
}
