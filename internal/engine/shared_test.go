package engine

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// bandPlans builds n non-mergeable range selections over lineitem.
func bandPlans(e *Engine, n int) []plan.Node {
	return tpch.QuantityBandWorkload(e.Catalog(), n)
}

// stmtsOf wraps plans as plain window statements.
func stmtsOf(plans []plan.Node) []Stmt {
	stmts := make([]Stmt, len(plans))
	for i, p := range plans {
		stmts[i] = Stmt{Plan: p}
	}
	return stmts
}

// driveShared runs all plans as one window on a fresh shared session,
// returning each query's materialized rows.
func driveShared(t *testing.T, e *Engine, plans []plan.Node) [][]expr.Row {
	t.Helper()
	out := make([][]expr.Row, len(plans))
	e.RunWindow(e.NewSharedSession(), stmtsOf(plans), func(i int, _ *Rows, b *expr.Batch) {
		out[i] = b.AppendRowsTo(out[i])
	}, func(i int, _ *Rows, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// The engine-layer acceptance test: N concurrent scans through a shared
// session read the heap once (pool traffic equals one pass, not N), return
// per-query rows bit-identical to the private path, and charge page-stream
// cycles once per pass while per-tuple cycles scale with N.
func TestSharedSessionOnePassServesConcurrentScans(t *testing.T) {
	const n = 4
	prof := ProfileCommercial()
	prof.BGIOProbPerPage = 0 // keep the disk comparison exact

	// Private baseline: each query its own pass on a fresh engine.
	var wantRows [][]expr.Row
	basePool := int64(0)
	ePriv, mPriv := newEngine(t, prof, 0.01)
	ePriv.WarmAll()
	pages := int64(ePriv.MustTable(tpch.Lineitem).Heap.NumPages())
	privBefore := mPriv.CPUModel().Stats()
	for _, p := range bandPlans(ePriv, n) {
		res, st := ePriv.Exec(p)
		wantRows = append(wantRows, res.Rows)
		basePool += st.PoolHits + st.PoolMisses
	}
	privStream := mPriv.CPUModel().Stats().CyclesByKind[cpu.Stream] - privBefore.CyclesByKind[cpu.Stream]
	if basePool != n*pages {
		t.Fatalf("private baseline touched %d pages, want %d×%d", basePool, n, pages)
	}

	// Shared run on a fresh identical engine.
	eShared, m := newEngine(t, prof, 0.01)
	eShared.WarmAll()
	eShared.Pool().ResetStats()
	before := m.CPUModel().Stats()
	gotRows := driveShared(t, eShared, bandPlans(eShared, n))
	after := m.CPUModel().Stats()

	for qi := range wantRows {
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

	st := eShared.Pool().Stats()
	if st.Hits+st.Misses != pages {
		t.Fatalf("shared run touched the pool %d times, want one pass (%d)", st.Hits+st.Misses, pages)
	}

	// One I/O stream, N consumer fragments: relative to N private passes,
	// the shared run saves exactly (n-1) passes' worth of page-stream
	// cycles — the result path (also Stream work) is still charged per
	// query. Interleaved flushing reorders float accumulation, so allow a
	// relative epsilon.
	sharedStream := after.CyclesByKind[cpu.Stream] - before.CyclesByKind[cpu.Stream]
	onePassStream := prof.Cost.PageStreamCyclesPerKB * float64(eShared.MustTable(tpch.Lineitem).Heap.Bytes()) / 1024 * prof.Amplification()
	saved := privStream - sharedStream
	wantSaved := float64(n-1) * onePassStream
	if diff := saved - wantSaved; diff > 1e-6*wantSaved || diff < -1e-6*wantSaved {
		t.Fatalf("shared run saved %v stream cycles, want %v ((n-1) passes); shared=%v private=%v",
			saved, wantSaved, sharedStream, privStream)
	}
}

// Zero-result scans through the shared path must terminate and account
// like any other consumer — including on empty tables, where a consumer is
// born done, and single-page heaps.
func TestSharedSessionZeroResultAndDegenerateHeaps(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.005)

	empty := catalog.NewTable("empty_t", catalog.NewSchema(
		catalog.Column{Name: "x", Kind: expr.KindInt}))
	e.Catalog().MustCreate(empty)

	tiny := catalog.NewTable("tiny_t", catalog.NewSchema(
		catalog.Column{Name: "x", Kind: expr.KindInt}))
	tiny.Insert(expr.Row{expr.Int(7)})
	e.Catalog().MustCreate(tiny)
	if tiny.Heap.NumPages() != 1 {
		t.Fatalf("tiny heap has %d pages, want 1", tiny.Heap.NumPages())
	}

	li := e.MustTable(tpch.Lineitem)
	noMatch := plan.NewScan(li, expr.Cmp{ // l_quantity is 1..50: no row matches
		Op: expr.GT, L: li.Schema.Col("l_quantity"), R: expr.Const{V: expr.Int(1000)}})

	plans := []plan.Node{
		plan.NewScan(empty, nil),
		plan.NewScan(tiny, nil),
		noMatch,
		plan.NewScan(tiny, expr.Cmp{Op: expr.EQ, L: tiny.Schema.Col("x"), R: expr.Const{V: expr.Int(8)}}),
	}
	got := driveShared(t, e, plans)
	if len(got[0]) != 0 {
		t.Fatalf("empty table returned %d rows", len(got[0]))
	}
	if len(got[1]) != 1 || got[1][0][0].I != 7 {
		t.Fatalf("single-page heap returned %v", got[1])
	}
	if len(got[2]) != 0 {
		t.Fatalf("zero-result scan returned %d rows", len(got[2]))
	}
	if len(got[3]) != 0 {
		t.Fatalf("zero-result single-page scan returned %d rows", len(got[3]))
	}
}

// A consumer admitted while the pass sits on the LAST page of the heap
// still sees every row exactly once (wrap-around), at the engine layer.
func TestSharedSessionLateAttachSeesWholeTable(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.01)
	li := e.MustTable(tpch.Lineitem)
	n := li.Heap.NumPages()
	if n < 2 {
		t.Fatalf("need a multi-page heap, got %d pages", n)
	}

	sess := e.NewSharedSession()
	first := sess.Query(plan.NewScan(li, nil))
	// Drive the pass until it sits on the last page. Batches are
	// page-granular and the full scan is filterless, so each Next is one
	// page.
	for i := 0; i < n-1; i++ {
		if b, err := first.Next(); err != nil || b == nil {
			t.Fatalf("pull %d: batch=%v err=%v", i, b, err)
		}
	}
	if pos := sess.Coordinator(li).Pos(); pos != n-1 {
		t.Fatalf("pass position = %d, want %d", pos, n-1)
	}

	late := sess.Query(plan.NewScan(li, nil))
	var lateRows int64
	for {
		b, err := late.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		lateRows += int64(b.Len())
	}
	if lateRows != li.Heap.NumRows() {
		t.Fatalf("late consumer saw %d rows, want %d (every page exactly once)", lateRows, li.Heap.NumRows())
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if got := first.Stats().RowsOut; got != li.Heap.NumRows() {
		t.Fatalf("first consumer accounted %d rows, want %d", got, li.Heap.NumRows())
	}
}

// Plain Query/Exec stay on the private path: a shared session on the same
// engine must not alter their accounting.
func TestPlainQueryUnaffectedBySharedSession(t *testing.T) {
	e1, _ := newEngine(t, ProfileCommercial(), 0.005)
	e1.WarmAll()
	_, want := e1.Exec(tpch.QuantityQuery(e1.Catalog(), 25))

	e2, _ := newEngine(t, ProfileCommercial(), 0.005)
	e2.WarmAll()
	_ = e2.NewSharedSession() // exists, unused
	_, got := e2.Exec(tpch.QuantityQuery(e2.Catalog(), 25))
	if got != want {
		t.Fatalf("plain Exec stats changed with a shared session present: %+v vs %+v", got, want)
	}
}
