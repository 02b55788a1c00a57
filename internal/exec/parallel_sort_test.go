package exec

import (
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

func TestCompileParallelSortLowering(t *testing.T) {
	tb := numbersTable(t, "t", 300)
	k := tb.Schema.Col("k")
	chain := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil),
			expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(250)}}),
		[]expr.Expr{k}, []string{"k"}, []expr.Kind{expr.KindInt})
	srt := plan.NewSort(chain, plan.SortKey{Col: 0, Desc: true})

	if _, ok := unwrapSpan(CompileParallel(srt, 4)).(*parallelSortOp); !ok {
		t.Fatalf("sort over fragment compiled to %T, want parallel sort",
			unwrapSpan(CompileParallel(srt, 4)))
	}

	// A sort over a blocking input takes an operator; the fragment below
	// the blocking input still folds into a morsel leaf.
	overLimit := plan.NewSort(plan.NewLimit(chain, 5), plan.SortKey{Col: 0})
	root, ok := unwrapSpan(CompileParallel(overLimit, 4)).(*sortOp)
	if !ok {
		t.Fatalf("sort over limit compiled to %T", unwrapSpan(CompileParallel(overLimit, 4)))
	}
	lim, ok := unwrapSpan(root.input).(*limitOp)
	if !ok {
		t.Fatalf("sort input compiled to %T, want limit", unwrapSpan(root.input))
	}
	if _, ok := unwrapSpan(lim.input).(*morselExec); !ok {
		t.Fatalf("limit input compiled to %T, want morsel fragment", unwrapSpan(lim.input))
	}
}

func TestCompileParallelProbeLowering(t *testing.T) {
	build := numbersTable(t, "b", 100)
	probe := numbersTable(t, "p", 400)
	pk := probe.Schema.Col("k")
	probeChain := plan.NewFilter(plan.NewScan(probe, nil),
		expr.Cmp{Op: expr.LT, L: pk, R: expr.Const{V: expr.Int(350)}})
	j := plan.NewHashJoin(plan.NewScan(build, nil), probeChain,
		build.Schema.MustIndex("k"), probe.Schema.MustIndex("k"), nil)

	hj := unwrapSpan(CompileParallel(j, 4)).(*hashJoinOp)
	if hj.pump.frag == nil || hj.probe != nil {
		t.Fatalf("fragment probe: pump fragment=%v probe=%T, want the join's own pump probing",
			hj.pump.frag, hj.probe)
	}

	// A blocking probe side cannot fold: the probe stays an operator tree.
	jb := plan.NewHashJoin(plan.NewScan(build, nil), plan.NewLimit(probeChain, 5),
		build.Schema.MustIndex("k"), probe.Schema.MustIndex("k"), nil)
	hjb := unwrapSpan(CompileParallel(jb, 4)).(*hashJoinOp)
	if hjb.pump.frag != nil || hjb.probe == nil {
		t.Fatal("probe over limit must not fold into the join's pump")
	}
}

func TestParallelSortEarlyCloseStopsWorkers(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 20000)
	op := CompileParallel(plan.NewSort(plan.NewScan(tb, nil), plan.SortKey{Col: 0, Desc: true}), 4)
	if _, ok := unwrapSpan(op).(*parallelSortOp); !ok {
		t.Fatalf("compiled to %T, want parallel sort", unwrapSpan(op))
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Abandon before the first Next: Close must stop the worker pool
	// without deadlocking, and be idempotent.
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestParallelProbeEarlyCloseStopsWorkers(t *testing.T) {
	ctx, _ := testCtx()
	build := numbersTable(t, "b", 200)
	probe := numbersTable(t, "p", 20000)
	j := plan.NewHashJoin(plan.NewScan(build, nil), plan.NewScan(probe, nil),
		build.Schema.MustIndex("k"), probe.Schema.MustIndex("k"), nil)
	op := CompileParallel(j, 4)
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Abandon after the build finished but before probing: Close must stop
	// the probe worker pool without deadlocking, and be idempotent.
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSortEmptyHeap(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 0)
	rows := collect(t, CompileParallel(plan.NewSort(plan.NewScan(tb, nil), plan.SortKey{Col: 0}), 4), ctx)
	if len(rows) != 0 {
		t.Fatalf("sort over empty heap produced %d rows", len(rows))
	}
}

// A run's bound comes from whichever runs sealed before it started, and
// nothing orders that against page order: a run of earlier pages may start
// under the bound of a later one. Rows tying with the bound on the keys but
// arriving before it still belong to the first rows overall and must be
// kept; only rows sorting after it under (keys, ordinal) may go.
func TestSortedRunBoundKeepsEarlierTies(t *testing.T) {
	keys := []plan.SortKey{{Col: 0}}
	batch := func(ks ...int64) *expr.Batch {
		b := expr.NewBatch(1)
		for _, k := range ks {
			b.AppendRow(expr.Row{expr.Int(k)})
		}
		return b
	}
	later := newSortedRun(keys, 2, 1)
	later.add(batch(1, 1, 1, 1), 1000)
	later.seal()

	earlier := newSortedRun(keys, 2, 1)
	earlier.bound = &sortBound{run: later, row: later.perm[1]}
	earlier.add(batch(2, 1, 1, 0, 2, 1), 0) // ordinals 0..5
	if earlier.rows != 6 {
		t.Fatalf("consumed %d rows, want all 6 counted", earlier.rows)
	}
	if earlier.buf.N != 3 {
		t.Fatalf("copied %d rows, want 3: the two 2s sort after the bound, and the heap is full of better rows by the last 1", earlier.buf.N)
	}
	earlier.seal()

	lt := newLoserTree([]*sortedRun{later, earlier})
	for i, want := range []int64{3, 1} { // key 0 at ordinal 3, then the earliest 1
		run, row := lt.pop()
		if run != earlier || run.ord[row] != want {
			t.Fatalf("merged row %d has ordinal %d, want %d from the earlier run", i, run.ord[row], want)
		}
	}
}
