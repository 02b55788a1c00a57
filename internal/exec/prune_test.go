package exec

import (
	"fmt"
	"math"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/oracle"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
	"ecodb/internal/storage"
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

// TestPruneDecisionsMatchOracle pins the pruning decision at the executor.
// Every prunePlans shape, over plain and dictionary-encoded strings, runs
// as private scans and as shared-pass consumers, at one and at four
// workers, with zone maps on. The pages each scan skips must be exactly
// those on which oracle.Prunes holds for one of its fragment's prune
// predicates: its scan filter and, for a private scan, the filters stacked
// on it below the first projection. A skipped page never reaches the
// buffer pool, which here keeps every page read, so the skipped pages are
// the ones it does not hold. And a scan with a prune predicate — every
// predicate prunePlans builds has a prunable shape — must charge one zone
// check per page it examines, counted as the compute a run gains when a
// check costs zoneCheck cycles instead of none.
func TestPruneDecisionsMatchOracle(t *testing.T) {
	const zoneCheck = 1 << 16
	for _, dict := range []bool{false, true} {
		for name, p := range prunePlans(t, dict) {
			for _, shared := range []bool{false, true} {
				preds := map[*catalog.Table][]expr.Expr{}
				fragmentPrunes(p, shared, nil, preds)
				wantChecks := 0
				for tb, ps := range preds {
					if len(ps) > 0 {
						wantChecks += tb.Heap.NumPages()
					}
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/dict=%v/shared=%v/workers=%d", name, dict, shared, workers)
					free, pool := runPruned(t, p, shared, workers, 0)
					charged, _ := runPruned(t, p, shared, workers, zoneCheck)
					gained := charged.CyclesByKind[cpu.Compute] - free.CyclesByKind[cpu.Compute]
					if checks := math.Round(gained / zoneCheck); checks != float64(wantChecks) {
						t.Errorf("%s: %v zone checks charged, want one per examined page: %d", label, checks, wantChecks)
					}
					skipped := 0
					for tb, ps := range preds {
						for i := 0; i < tb.Heap.NumPages(); i++ {
							zones := oracleZones(tb.Heap.Page(i))
							want := false
							for _, pred := range ps {
								want = want || oracle.Prunes(pred, zones)
							}
							got := !pool.Contains(storage.PageID{Table: tb.Name, Index: i})
							if got != want {
								t.Errorf("%s: page %d of %s skipped %v, the oracle prunes it %v", label, i, tb.Name, got, want)
							}
							if got {
								skipped++
							}
						}
					}
					if wantChecks > 0 && skipped == 0 {
						t.Errorf("%s: no page skipped — the fixture no longer prunes", label)
					}
				}
			}
		}
	}
}

// fragmentPrunes records, for every table a scan under n reads, the
// predicates the scan's fragment prunes on: the scan's filter and, for a
// private scan, the filters above it — those stacked on the scan below the
// first projection.
func fragmentPrunes(n plan.Node, shared bool, above []expr.Expr, out map[*catalog.Table][]expr.Expr) {
	switch m := n.(type) {
	case *plan.Scan:
		var ps []expr.Expr
		if m.Filter != nil {
			ps = append(ps, m.Filter)
		}
		if !shared {
			ps = append(ps, above...)
		}
		out[m.Table] = ps
	case *plan.Filter:
		fragmentPrunes(m.Input, shared, append(above, m.Pred), out)
	default:
		for _, c := range n.Children() {
			fragmentPrunes(c, shared, nil, out)
		}
	}
}

// oracleZones folds each column of page into an oracle zone.
func oracleZones(page *storage.Page) []oracle.Zone {
	zones := make([]oracle.Zone, len(page.Data.Cols))
	for c := range zones {
		for v, i := &page.Data.Cols[c], 0; i < v.Len(); i++ {
			zones[c].Fold(v.Get(i))
		}
	}
	return zones
}

// runPruned drains p with zone maps on, its scans private or each on a
// shared pass of its table, over a buffer pool that keeps every page read,
// a zone check costing zoneCheck cycles. It returns the CPU's counters and
// the pool.
func runPruned(t *testing.T, p plan.Node, shared bool, workers int, zoneCheck float64) (cpu.Stats, *storage.BufferPool) {
	t.Helper()
	ctx, _ := testCtx()
	ctx.ZoneMapPruning = true
	ctx.Cost.ZoneCheckCycles = zoneCheck
	ctx.Pool = storage.NewBufferPool(1<<30, readerFunc(func(int64, bool) {}))
	op := CompileParallel(p, workers)
	if shared {
		op = CompileShared(p, workers, func(s *plan.Scan) Operator {
			return NewSharedScan(scanshare.NewCoordinator(s.Table.Heap, s.Table.Name, ctx.Pool), s.Table, s.Filter)
		})
	}
	collect(t, op, ctx)
	ctx.Flush()
	return ctx.CPU.Stats(), ctx.Pool
}
