package exec

import (
	"fmt"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
)

// clusteredTable builds the pruning test fixture: a monotone int key (so
// heap pages cover narrow disjoint key bands — the shape zone maps prune),
// a string column laid out in contiguous runs (so string-equality scans
// prune too, and dictionary encoding has a few distinct words to encode),
// and a float measure. Periodic NULLs in both s and x keep the NULL
// semantics honest under pruning and encoding.
func clusteredTable(t *testing.T, name string, n int) *catalog.Table {
	t.Helper()
	tb := catalog.NewTable(name, catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "s", Kind: expr.KindString},
		catalog.Column{Name: "x", Kind: expr.KindFloat},
	))
	const nWords = 40
	for i := 0; i < n; i++ {
		s := expr.String(fmt.Sprintf("w%02d", (i*nWords)/n))
		if i%13 == 0 {
			s = expr.Null()
		}
		x := expr.Float(float64(i)*0.37 - float64(i%11)/7)
		if i%7 == 0 {
			x = expr.Null()
		}
		tb.Insert(expr.Row{expr.Int(int64(i)), s, x})
	}
	return tb
}

// prunePlans builds the plan-shape matrix against fresh fixture tables:
// pruned range scans, string-equality scans (dictionary fodder), pushdown
// through fused filter chains, parallel aggregation over a pruned
// fragment, and a string-keyed join whose probe side prunes (the probe reads
// words through dictionary codes when encoding is on).
func prunePlans(t *testing.T, dict bool) map[string]plan.Node {
	t.Helper()
	tb := clusteredTable(t, "c", 6000)
	big := clusteredTable(t, "b", 10000)
	if dict {
		tb.Heap.CompressStrings()
		big.Heap.CompressStrings()
	}
	k, s, x := tb.Schema.Col("k"), tb.Schema.Col("s"), tb.Schema.Col("x")
	return map[string]plan.Node{
		"range-scan": plan.NewScan(tb, expr.Between{E: k, Lo: expr.Int(800), Hi: expr.Int(1100)}),
		"string-eq-scan": plan.NewScan(tb, expr.Cmp{
			Op: expr.EQ, L: s, R: expr.Const{V: expr.String("w07")}}),
		"fused-chain": plan.NewProject(
			plan.NewFilter(plan.NewScan(tb, nil), expr.And{Terms: []expr.Expr{
				expr.Cmp{Op: expr.GE, L: k, R: expr.Const{V: expr.Int(4000)}},
				expr.Cmp{Op: expr.LT, L: x, R: expr.Const{V: expr.Float(1900)}},
			}}),
			[]expr.Expr{s, expr.Arith{Op: expr.Mul, L: x, R: expr.Const{V: expr.Float(2)}}},
			[]string{"s", "x2"}, []expr.Kind{expr.KindString, expr.KindFloat}),
		"agg-over-pruned-fragment": plan.NewAgg(
			plan.NewScan(tb, expr.Between{E: k, Lo: expr.Int(500), Hi: expr.Int(2500)}),
			[]int{tb.Schema.MustIndex("s")},
			[]plan.AggSpec{
				{Func: plan.Sum, Arg: x, Name: "sx"},
				{Func: plan.Count, Name: "c"},
			}),
		// The probe side looks its string keys up — through dictionary codes
		// when encoding is on — while its scan prunes.
		"string-join-pruned-probe": plan.NewHashJoin(
			plan.NewScan(big, nil),
			plan.NewScan(tb, expr.Between{E: k, Lo: expr.Int(100), Hi: expr.Int(700)}),
			big.Schema.MustIndex("s"), tb.Schema.MustIndex("s"), nil),
	}
}

// TestPruningAndDictResultsIdentical is the compression tentpole's
// correctness gate: for every plan shape, query results are bit-identical
// across all four {zone-maps × dict-strings} combinations, and
// within each combination the full simulated outcome — rows, clock, cycles
// by kind, joules, pool traffic, page hooks — is bit-identical across
// worker counts. (Joules legitimately differ BETWEEN combinations: pruning
// skips work. Results never do.)
func TestPruningAndDictResultsIdentical(t *testing.T) {
	combos := []struct {
		name     string
		zm, dict bool
	}{
		{"plain", false, false},
		{"zonemaps", true, false},
		{"dict", false, true},
		{"zonemaps+dict", true, true},
	}
	refRows := map[string][]expr.Row{}
	for _, combo := range combos {
		for name, p := range prunePlans(t, combo.dict) {
			label := name + "/" + combo.name
			serial := runWorkersPruning(t, p, 1, true, combo.zm)
			if len(serial.rows) == 0 {
				t.Fatalf("%s: serial run produced no rows — fixture no longer bites", label)
			}
			if combo.name == "plain" {
				refRows[name] = serial.rows
			} else {
				want := refRows[name]
				if len(serial.rows) != len(want) {
					t.Fatalf("%s: %d rows, plain-storage reference %d", label, len(serial.rows), len(want))
				}
				for i := range want {
					for c := range want[i] {
						if serial.rows[i][c] != want[i][c] {
							t.Fatalf("%s: row %d col %d = %v, plain %v", label, i, c, serial.rows[i][c], want[i][c])
						}
					}
				}
			}
			for _, w := range []int{2, 4} {
				assertOutcomesIdentical(t, serial, runWorkersPruning(t, p, w, true, combo.zm), label)
			}
		}
	}
}

// TestScanPrunesPages pins the counter semantics: a selective range scan
// skips pages only when pruning is on, and skipped pages never reach the
// buffer pool.
func TestScanPrunesPages(t *testing.T) {
	tb := clusteredTable(t, "c", 6000)
	p := plan.NewScan(tb, expr.Between{E: tb.Schema.Col("k"), Lo: expr.Int(800), Hi: expr.Int(1100)})

	before := obsv.PagesPruned.Load()
	off := runWorkers(t, p, 1, true)
	if got := obsv.PagesPruned.Load() - before; got != 0 {
		t.Fatalf("pruning off: counter delta = %d, want 0", got)
	}

	before = obsv.PagesPruned.Load()
	on := runWorkersPruning(t, p, 1, true, true)
	pruned := obsv.PagesPruned.Load() - before
	if pruned == 0 {
		t.Fatal("pruning on: no pages pruned on a clustered range scan")
	}
	if int64(on.hooks)+pruned != int64(off.hooks) {
		t.Fatalf("page hooks %d + pruned %d != unpruned hooks %d", on.hooks, pruned, off.hooks)
	}
	onAcc, offAcc := on.pool.Hits+on.pool.Misses, off.pool.Hits+off.pool.Misses
	if onAcc+pruned != offAcc {
		t.Fatalf("pool accesses %d + pruned %d != unpruned accesses %d", onAcc, pruned, offAcc)
	}
}

// TestSharedScanPruningMatchesPrivate extends the shared-alone ≡ private
// simulation identity to the pruning path: one consumer on a coordinator,
// zone maps on, versus a private scan of the same predicate.
func TestSharedScanPruningMatchesPrivate(t *testing.T) {
	tb := clusteredTable(t, "c", 6000)
	pred := expr.Between{E: tb.Schema.Col("k"), Lo: expr.Int(800), Hi: expr.Int(1100)}

	ctxPriv, clockPriv := testCtx()
	ctxPriv.ZoneMapPruning = true
	want := collect(t, CompileParallel(plan.NewScan(tb, pred), 1), ctxPriv)
	ctxPriv.Flush()

	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	ctxShared, clockShared := testCtx()
	ctxShared.ZoneMapPruning = true
	got := collect(t, NewSharedScan(coord, tb, pred), ctxShared)
	ctxShared.Flush()

	if len(got) != len(want) {
		t.Fatalf("shared pruned scan returned %d rows, private %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, got[i][c], want[i][c])
			}
		}
	}
	if clockShared.Now() != clockPriv.Now() {
		t.Fatalf("shared-alone time %v differs from private %v under pruning", clockShared.Now(), clockPriv.Now())
	}
	if ctxShared.CPU.Stats() != ctxPriv.CPU.Stats() {
		t.Fatalf("shared-alone cycles differ from private under pruning:\n got %+v\nwant %+v",
			ctxShared.CPU.Stats(), ctxPriv.CPU.Stats())
	}
	st := coord.Stats()
	if st.PagesPruned == 0 {
		t.Fatal("coordinator skipped no pages on a clustered range scan")
	}
	if st.PagesSurfaced+st.PagesPruned != int64(tb.Heap.NumPages()) {
		t.Fatalf("surfaced %d + pruned %d != %d heap pages", st.PagesSurfaced, st.PagesPruned, tb.Heap.NumPages())
	}
}
