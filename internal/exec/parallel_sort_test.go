package exec

import (
	"cmp"
	"slices"
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

	if got := opTree(CompileParallel(srt, 4)); got != "sort(pump)" {
		t.Fatalf("sort over fragment compiled to %s, want sort(pump)", got)
	}

	// A sort over a blocking input takes an input operator; the fragment
	// below the blocking input still folds into a pump-driven fused operator.
	overLimit := plan.NewSort(plan.NewLimit(chain, 5), plan.SortKey{Col: 0})
	if got := opTree(CompileParallel(overLimit, 4)); got != "sort(limit(fused(pump)))" {
		t.Fatalf("sort over limit compiled to %s", got)
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
	if got := opTree(op); got != "sort(pump)" {
		t.Fatalf("compiled to %s, want sort(pump)", got)
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

// A run's bound comes from whichever runs sealed while it ran, and nothing
// orders that against page order: a run of earlier pages may add rows
// under the bound of later ones. Rows tying with the bound on the keys but
// arriving before it still belong to the first rows overall and must be
// kept — by the first-key selection as by the exact test; only rows
// sorting after it under (keys, ordinal) may go. The bound is published
// only once the sealed runs hold limit rows, from one run or from the
// merge of several.
func TestSortedRunBoundKeepsEarlierTies(t *testing.T) {
	keys := []plan.SortKey{{Col: 0}}
	batch := func(ks ...int64) *expr.Batch {
		b := expr.NewBatch(1)
		for _, k := range ks {
			b.AppendRow(expr.Row{expr.Int(k)})
		}
		return b
	}
	sealed := func(base int64, ks ...int64) *sortedRun {
		r := newSortedRun(keys, 2, 1)
		r.add(batch(ks...), base)
		r.seal()
		return r
	}
	cases := []struct {
		name  string
		runs  []*sortedRun // offered in order
		bound int64        // ordinal of the published bound row
		first [2]int64     // ordinals the merge serves first
	}{
		// One run holds two rows at or before its second 1.
		{"one sealed run", []*sortedRun{sealed(1000, 1, 1, 1, 1)}, 1001, [2]int64{3, 1}},
		// One row is too few to publish; with the second run's the list
		// holds 0@3000 and 1@1000, and 1@1000 is the bound, though neither
		// run alone holds two rows at or before it.
		{"two sealed runs", []*sortedRun{sealed(3000, 0), sealed(1000, 1, 5)}, 1000, [2]int64{3, 3000}},
	}
	for _, c := range cases {
		s := &sortOp{keys: keys, limit: 2}
		held := 0
		for _, r := range c.runs {
			s.offer(r)
			if held += len(r.perm); held < s.limit && s.bound.Load() != nil {
				t.Fatalf("%s: a bound was published from %d sealed rows, fewer than the limit %d", c.name, held, s.limit)
			}
		}
		b := s.bound.Load()
		if b == nil || b.run.ord[b.row] != c.bound {
			t.Fatalf("%s: bound %+v, want the row at ordinal %d", c.name, b, c.bound)
		}

		earlier := newSortedRun(keys, 2, 1)
		earlier.bound = b
		earlier.add(batch(2, 1, 1, 0, 2, 1), 0) // ordinals 0..5
		if earlier.rows != 6 {
			t.Fatalf("%s: consumed %d rows, want all 6 counted", c.name, earlier.rows)
		}
		if earlier.buf.N != 3 {
			t.Fatalf("%s: copied %d rows, want 3: the two 2s sort after the bound, and the heap is full of better rows by the last 1", c.name, earlier.buf.N)
		}
		earlier.seal()

		lt := newLoserTree(append(slices.Clone(c.runs), earlier))
		for i, want := range c.first {
			run, rows := lt.popStretch(1)
			if run == nil || len(rows) != 1 || run.ord[rows[0]] != want {
				t.Fatalf("%s: merged row %d is %v, want ordinal %d", c.name, i, rows, want)
			}
		}
	}
}

// The merge gathers each stretch of rows one run supplies with one
// AppendFrom per column. What it serves must still be a naive merge of the
// runs — every row, and every batch boundary at the batch target and the
// limit — whether the runs interleave row by row or one run supplies whole
// batches.
func TestSortMergeServesNaiveMergeBatches(t *testing.T) {
	const batch, rows = 4, 30
	keys := []plan.SortKey{{Col: 0}}
	interleaved, blocks := make([][]int64, 3), make([][]int64, 3)
	for i := 0; i < rows; i++ {
		interleaved[i%3] = append(interleaved[i%3], int64(i/2)) // ties across runs
		blocks[i/10] = append(blocks[i/10], int64(rows-1-i))    // runs in reverse key order
	}
	cases := map[string][][]int64{
		"runs interleave row by row":     interleaved,
		"one run supplies whole batches": blocks,
		"one run":                        {interleaved[0]},
	}
	for name, lists := range cases {
		for _, limit := range []int{-1, 0, 1, 5, 13, rows, 2 * rows} {
			// Each row carries its ordinal in column 1; run r's ordinals
			// start at r<<32, as a pump run's do at its first page's.
			var runs []*sortedRun
			var want [][2]int64
			for r, ks := range lists {
				b := expr.NewBatch(2)
				for i, k := range ks {
					ord := int64(r)<<32 + int64(i)
					b.AppendRow(expr.Row{expr.Int(k), expr.Int(ord)})
					want = append(want, [2]int64{k, ord})
				}
				run := newSortedRun(keys, limit, 2)
				run.add(b, int64(r)<<32)
				run.seal()
				if len(run.perm) > 0 {
					runs = append(runs, run)
				}
			}
			slices.SortFunc(want, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
			if limit >= 0 && limit < len(want) {
				want = want[:limit]
			}
			ctx, _ := testCtx()
			ctx.BatchSize = batch
			s := &sortOp{keys: keys, limit: limit, out: expr.NewBatch(2), runs: runs, lt: newLoserTree(runs)}
			for i := 0; ; i++ {
				b, err := s.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantBatch := want[min(i*batch, len(want)):min((i+1)*batch, len(want))]
				if b == nil {
					if len(wantBatch) > 0 {
						t.Fatalf("%s, limit %d: batch %d missing, want %v", name, limit, i, wantBatch)
					}
					break
				}
				got := b.Rows()
				if len(got) != len(wantBatch) {
					t.Fatalf("%s, limit %d: batch %d has %d rows, want %d", name, limit, i, len(got), len(wantBatch))
				}
				for j, row := range got {
					if row[0].I != wantBatch[j][0] || row[1].I != wantBatch[j][1] {
						t.Fatalf("%s, limit %d: batch %d row %d is %v, want %v", name, limit, i, j, row, wantBatch[j])
					}
				}
			}
		}
	}
}
