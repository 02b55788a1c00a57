package exec

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// The blocking operators allocate per page, per group and per kept row —
// never per input row: buffers grow by doubling, scratch is reused from
// batch to batch, and what crosses from a producer to the coordinator comes
// back to be filled again. The budgets are allocations per 1000 input rows
// on pages of ~300 rows, for a whole compile-and-drain. An inline pump
// refills one page record, match pairs included, so what it allocates is
// per run of storage.DefaultMorselRunLength pages: a sorted run's buffers
// growing from empty, a partial table learning its run's group keys. A pool adds its producers
// and channels; its page records come from the record pool, which the run
// before refilled (TestSecondRunAllocatesNoRecordAndNoProjection). An
// operator that allocated per row would need a thousand.
func TestBlockingOperatorsAllocatePerPageNotPerRow(t *testing.T) {
	const (
		rows         = 20000
		inlineBudget = 60.0  // per 1000 input rows at workers=1 (measured 3 probe, 24 sort, 11 agg; 18 under -race)
		pooledBudget = 120.0 // per 1000 input rows at workers=4 (measured 5 probe, 25 sort, 42 agg)
	)
	big := catalog.NewTable("big", catalog.NewSchema(
		catalog.Column{Name: "g", Kind: expr.KindInt},
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "x", Kind: expr.KindFloat},
	))
	for i := 0; i < rows; i++ {
		big.Insert(expr.Row{expr.Int(int64(i % 50)), expr.Int(int64(i)), expr.Float(float64(i%977) * 0.37)})
	}
	dim := numbersTable(t, "dim", 500)
	k, x := big.Schema.Col("k"), big.Schema.Col("x")

	plans := map[string]plan.Node{
		"top-100 sort": plan.NewLimit(plan.NewSort(plan.NewScan(big, nil), plan.SortKey{Col: 2, Desc: true}), 100),
		"join probe": plan.NewHashJoin(plan.NewScan(dim, nil), plan.NewScan(big, nil),
			dim.Schema.MustIndex("k"), big.Schema.MustIndex("k"),
			expr.Cmp{Op: expr.GE, L: expr.Col{Idx: 4}, R: expr.Const{V: expr.Float(1)}}),
		// v = 10k spans 4991 over 500 keys, k's 500 keys span 499: a
		// sparse and a dense build, each behind a presence bitmap.
		"sparse join probe": plan.NewHashJoin(plan.NewScan(dim, nil), plan.NewScan(big, nil),
			dim.Schema.MustIndex("v"), big.Schema.MustIndex("k"), nil),
		"grouped aggregation": plan.NewAgg(plan.NewScan(big, nil), []int{0}, []plan.AggSpec{
			{Func: plan.Sum, Arg: x, Name: "sum_x"},
			{Func: plan.Avg, Arg: expr.Arith{Op: expr.Mul, L: x, R: k}, Name: "avg_xk"},
			{Func: plan.Max, Arg: k, Name: "max_k"},
			{Func: plan.Count, Name: "n"},
		}),
	}
	for name, p := range plans {
		for _, c := range []struct {
			workers int
			budget  float64
		}{{1, inlineBudget}, {4, pooledBudget}} {
			out := 0
			allocs := testing.AllocsPerRun(5, func() {
				ctx, _ := testCtx()
				out = 0
				if err := Drain(ctx, CompileParallel(p, c.workers), func(b *expr.Batch) error {
					out += b.Len()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			if out == 0 {
				t.Fatalf("%s: no output rows; the budget would pin nothing", name)
			}
			per1000 := allocs / rows * 1000
			t.Logf("%s at workers=%d: %.1f allocations per 1000 input rows", name, c.workers, per1000)
			if per1000 > c.budget {
				t.Errorf("%s at workers=%d: %.1f allocations per 1000 input rows (%v over %d pages, %d rows out), budget %.0f",
					name, c.workers, per1000, allocs, big.Heap.NumPages(), out, c.budget)
			}
		}
	}
}

// A global aggregate — what scan_filter and shared_scan serve — resolves no
// group key: neither its table nor a run partial allocates a hash table.
func TestGlobalAggregateBuildsNoHashTable(t *testing.T) {
	tb := pagedTable(t, 3*storage.DefaultMorselRunLength, 12)
	n := plan.NewAgg(plan.NewScan(tb, nil), nil, []plan.AggSpec{
		{Func: plan.Sum, Arg: tb.Schema.Col("k"), Name: "sum_k"},
		{Func: plan.Count, Name: "n"},
	})
	for _, workers := range []int{1, 4} {
		a := unwrapSpan(CompileParallel(n, workers)).(*aggOp)
		ctx, _ := testCtx()
		if err := a.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Next(ctx); err != nil {
			t.Fatal(err)
		}
		tables := []*aggTable{a.table}
		if err := a.Close(ctx); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, a.spare.items...)
		if len(tables) < 2 {
			t.Fatalf("workers=%d: no run partial was merged", workers)
		}
		for i, tb := range tables {
			if !reflect.ValueOf(tb.index).IsZero() {
				t.Errorf("workers=%d: table %d of %d allocated a hash table", workers, i, len(tables))
			}
		}
	}
}

// A global SUM partial — the aggregate scan_filter and shared_scan serve
// over a pump — resolves no row to a group: folding keeps no group ids, a
// warm partial folds a batch without allocating, and merging partials in
// order counts the rows and adds the values with the bits of one serial
// fold. The batches carry a selection, a bare float column and one with
// NULLs, so both the in-place read and the evaluated argument fold.
func TestGlobalSumPartialKeepsNoGroupIDs(t *testing.T) {
	batches, aggs := globalSumBatches(40)
	serial, merged := newAggTable(nil, aggs, false), newAggTable(nil, aggs, false)
	part := newAggTable(nil, aggs, true)
	var meter expr.Cost
	for i, b := range batches {
		serial.fold(b, &meter)
		part.fold(b, &meter)
		if part.rowGid != nil {
			t.Fatalf("batch %d: the partial keeps %d group ids", i, len(part.rowGid))
		}
		if i%3 == 2 || i == len(batches)-1 {
			merged.merge(part)
			part.reset()
		}
	}
	for i := range aggs {
		if got, want := merged.count(i, 0), serial.count(i, 0); got != want {
			t.Errorf("%s: merged count %d, serial %d", aggs[i].Name, got, want)
		}
		if aggs[i].Func == plan.Count {
			continue
		}
		if got, want := merged.accs[i].sums[0], serial.accs[i].sums[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: merged sum %v, serial %v", aggs[i].Name, got, want)
		}
	}
	if n := serial.count(2, 0); n == serial.rows[0] || n == 0 {
		t.Fatalf("SUM(y) counted %d of %d rows: the NULLs would pin nothing", n, serial.rows[0])
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	// Evaluating y allocates its NULL bitmap per batch (ColVec.Reset drops
	// it), which is the expression's cost, not the partial's: the check
	// leaves SUM(y) out.
	lean := newAggTable(nil, []plan.AggSpec{aggs[0], aggs[1], aggs[3]}, true)
	lean.fold(batches[0], &meter)
	if allocs := testing.AllocsPerRun(100, func() {
		lean.reset()
		lean.fold(batches[0], &meter)
	}); allocs != 0 {
		t.Errorf("a warm global partial allocates %.0f times per batch, want none", allocs)
	}
}

// BenchmarkGlobalSumPartial folds run-sized stretches of batches into a
// global SUM partial and merges it, as a pooled global aggregation does,
// and reports the time per folded row.
func BenchmarkGlobalSumPartial(b *testing.B) {
	batches, aggs := globalSumBatches(32)
	rows := 0
	for _, in := range batches {
		rows += in.Len()
	}
	global, part := newAggTable(nil, aggs, false), newAggTable(nil, aggs, true)
	var meter expr.Cost
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, in := range batches {
			part.fold(in, &meter)
		}
		global.merge(part)
		part.reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// globalSumBatches returns n batches of 300 rows (x float, y float with
// every seventh NULL), each under a selection of two rows in three, and
// SUM(x), AVG(x), SUM(y), COUNT(*) over them.
func globalSumBatches(n int) ([]*expr.Batch, []plan.AggSpec) {
	batches := make([]*expr.Batch, n)
	for i := range batches {
		b := expr.NewBatch(2)
		for r := 0; r < 300; r++ {
			v := float64(i*300+r) * 0.37
			y := expr.Float(v / 3)
			if r%7 == 0 {
				y = expr.Null()
			}
			b.AppendRow(expr.Row{expr.Float(v), y})
			if r%3 != 0 {
				b.Sel = append(b.Sel, int32(r))
			}
		}
		batches[i] = b
	}
	x, y := expr.Col{Idx: 0, Name: "x"}, expr.Col{Idx: 1, Name: "y"}
	return batches, []plan.AggSpec{
		{Func: plan.Sum, Arg: x, Name: "sum_x"},
		{Func: plan.Avg, Arg: x, Name: "avg_x"},
		{Func: plan.Sum, Arg: y, Name: "sum_y"},
		{Func: plan.Count, Name: "n"},
	}
}

// A pooled pump recycles its page records and the buffers a record keeps —
// selection, projection vectors, meters — so what a statement allocates is
// bounded by the claim window, not by the heap: past the window, more pages
// cost no more allocations. Both heaps below are longer than two windows
// at workers=4, so the ring wraps, and end in a short run; allocating one
// record per page would cost at least one allocation per extra page.
func TestPooledPumpAllocationIsFlatInPageCount(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector: expression scratch then allocates per page")
	}
	const (
		workers    = 4
		perPageMax = 0.05 // allocations per extra page
	)
	// v = k mod 12 and v < 6 keep half of every page: no page needs bigger
	// buffers than the one before.
	pages := pumpFixturePages(workers)
	small, large := pagedTable(t, pages, 12), pagedTable(t, 10*pages, 12)
	if size := unsafe.Sizeof(morselResult{}); size > 160 {
		t.Errorf("a page record takes %d bytes, past the 160-byte size class", size)
	}
	sparse := numbersTable(t, "sparse", 200)
	var keys expr.ColVec
	for i := 0; i < 200; i++ {
		keys.Append(expr.Int(int64(10 * i)))
	}
	if reflect.ValueOf(expr.BuildJoinTable(&keys)).Elem().FieldByName("present").IsNil() {
		t.Fatal("the sparse build takes no presence bitmap; the test would pin none")
	}
	shapes := map[string]func(tb *catalog.Table) plan.Node{
		"scan→filter→count(*)": func(tb *catalog.Table) plan.Node {
			return plan.NewAgg(plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: tb.Schema.Col("v"), R: expr.Const{V: expr.Int(6)}}),
				nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}})
		},
		// A build of 200 keys spanning 1991 probes through a presence
		// bitmap, into the record's selection buffer.
		"sparse join probe": func(tb *catalog.Table) plan.Node {
			return plan.NewHashJoin(plan.NewScan(sparse, nil), plan.NewScan(tb, nil),
				sparse.Schema.MustIndex("v"), tb.Schema.MustIndex("k"), nil)
		},
		// GROUP BY l_quantity's shape: 12 integer groups, hashed in each
		// run partial's table, and a SUM read in place.
		"group by v": func(tb *catalog.Table) plan.Node {
			return plan.NewAgg(plan.NewScan(tb, nil), []int{1}, []plan.AggSpec{
				{Func: plan.Sum, Arg: tb.Schema.Col("k"), Name: "sum_k"},
				{Func: plan.Count, Name: "n"},
			})
		},
		"scan→filter→project": func(tb *catalog.Table) plan.Node {
			k, v := tb.Schema.Col("k"), tb.Schema.Col("v")
			return plan.NewProject(
				plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{Op: expr.LT, L: v, R: expr.Const{V: expr.Int(6)}}),
				[]expr.Expr{expr.Arith{Op: expr.Add, L: k, R: v}, k},
				[]string{"kv", "k"}, []expr.Kind{expr.KindFloat, expr.KindInt})
		},
	}
	for name, shape := range shapes {
		allocs := func(tb *catalog.Table) float64 {
			p := shape(tb)
			return testing.AllocsPerRun(10, func() {
				ctx, _ := testCtx()
				if err := Drain(ctx, CompileParallel(p, workers), func(*expr.Batch) error { return nil }); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		extra := float64(large.Heap.NumPages() - small.Heap.NumPages())
		t.Logf("%s: %.0f allocations over %d pages, %.0f over %d", name, a, small.Heap.NumPages(), b, large.Heap.NumPages())
		if perPage := (b - a) / extra; perPage > perPageMax {
			t.Errorf("%s: %.3f more allocations per extra page, want at most %.2f", name, perPage, perPageMax)
		}
	}
}

// Page records outlive their statement: a pump returns every record it
// drew to one process-wide pool when it closes, selection and projection
// vectors included, and the next statement's pump fills those. So once one
// run of a projecting fragment has filled the pool, running it again at
// workers=4 over more than two claim windows of pages allocates no
// page record and no projection vector: what is left is the pump's own
// per-run cost (its producers, channels and ring), the same for any heap.
func TestSecondRunAllocatesNoRecordAndNoProjection(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		workers = 4
		// The pump's per-run allocations, measured at 13. A run that
		// drew fresh records made more than a thousand: a record per
		// page in flight, with its selection and projection vectors.
		maxAllocs = 20
	)
	tb := pagedTable(t, pumpFixturePages(workers), 12)
	k, v := tb.Schema.Col("k"), tb.Schema.Col("v")
	p := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{Op: expr.LT, L: v, R: expr.Const{V: expr.Int(6)}}),
		[]expr.Expr{expr.Arith{Op: expr.Add, L: k, R: v}, k},
		[]string{"kv", "k"}, []expr.Kind{expr.KindFloat, expr.KindInt})
	op := CompileParallel(p, workers)
	ctx, _ := testCtx()
	rows := 0
	run := func() {
		rows = 0
		if err := Drain(ctx, op, func(b *expr.Batch) error {
			rows += b.Len()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the pool
	allocs := testing.AllocsPerRun(10, run)
	if want := 6 * tb.Heap.NumPages(); rows != want {
		t.Fatalf("%d rows out, want %d", rows, want)
	}
	t.Logf("a run over %d pages at workers=%d: %.0f allocations", tb.Heap.NumPages(), workers, allocs)
	if allocs > maxAllocs {
		t.Errorf("a second run allocates %.0f times, want at most %d: records or projections are not recycled", allocs, maxAllocs)
	}
}

// A pooled probe ships match pairs, not rows: producers only look keys up,
// and the coordinator gathers each page's output into the join's one output
// batch. However wide the output, a page in flight costs its record's pair
// buffers, once per record, never an output batch of its own — which cost
// one allocation per output column for every page in flight.
func TestPooledWideProbeAllocatesNoOutputBatchPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector append(s, make(...)...) allocates its operand: fragment.run's meter reset then allocates per page")
	}
	const workers, buildWidth, keys = 4, 19, 3
	probe := pagedTable(t, 1600, 12) // v = k mod 12: keys of a page's 12 rows match
	cols := make([]catalog.Column, buildWidth)
	for c := range cols {
		cols[c] = catalog.Column{Name: fmt.Sprintf("b%d", c), Kind: expr.KindInt}
	}
	build := catalog.NewTable("wide", catalog.NewSchema(cols...))
	for key := 0; key < keys; key++ {
		row := make(expr.Row, buildWidth)
		for c := range row {
			row[c] = expr.Int(int64(key))
		}
		build.Insert(row)
	}
	p := plan.NewHashJoin(plan.NewScan(build, nil), plan.NewScan(probe, nil), 0, probe.Schema.MustIndex("v"), nil)
	pages := probe.Heap.NumPages()
	out := 0
	allocs := testing.AllocsPerRun(5, func() {
		ctx, _ := testCtx()
		out = 0
		if err := Drain(ctx, CompileParallel(p, workers), func(b *expr.Batch) error {
			out += b.Len()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if want := keys * pages; out != want {
		t.Fatalf("%d rows out, want %d", out, want)
	}
	perPage := allocs / float64(pages)
	t.Logf("%d-column output over %d probe pages: %.0f allocations, %.2f per page", p.Schema().NumCols(), pages, allocs, perPage)
	if perPage > 1 {
		t.Errorf("%.2f allocations per probe page, want at most 1", perPage)
	}
}

// A run partial with SUM and AVG sizes its row vectors once, when the first
// page of its run with survivors folds: the rest of a run that survives
// whole folds without allocating, where vectors grown from empty would be
// reallocated page after page.
func TestRunPartialSizesRowVectorsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector append(s, make(...)...) allocates its operand: fragment.run's meter reset then allocates per page")
	}
	tb := pagedTable(t, storage.DefaultMorselRunLength, 12)
	k, v := tb.Schema.Col("k"), tb.Schema.Col("v")
	n := plan.NewAgg(plan.NewScan(tb, nil), []int{1}, []plan.AggSpec{
		{Func: plan.Sum, Arg: k, Name: "sum_k"},
		{Func: plan.Avg, Arg: v, Name: "avg_v"},
		{Func: plan.Count, Name: "n"},
	})
	// Mallocs counts the whole process: a runtime or leftover goroutine
	// allocating while the pages fold shows here too, a few times in ten
	// thousand runs. A fold that allocates does so on every attempt, so
	// the test fails only when a second attempt allocates as well.
	var mallocs uint64
	for attempt := 0; attempt < 2; attempt++ {
		if mallocs = foldRunAfterFirstPage(t, tb, n); mallocs == 0 {
			break
		}
	}
	if mallocs > 0 {
		t.Errorf("folding the run's pages after its first allocated %d times, want none", mallocs)
	}
}

// foldRunAfterFirstPage opens agg over tb, folds the first run's first
// page, and returns how many allocations folding the run's other pages
// made.
func foldRunAfterFirstPage(t *testing.T, tb *catalog.Table, agg plan.Node) uint64 {
	t.Helper()
	a := unwrapSpan(CompileParallel(agg, 1)).(*aggOp)
	ctx, _ := testCtx()
	if err := a.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer a.Close(ctx)
	run, _ := storage.NewMorselSource(tb.Heap).NextRun()
	sink := a.sink()
	var ws stageScratch
	var res morselResult
	page := func(idx int) {
		a.pump.frag.run(&res, idx, a.pump.src.Page(idx), &ws, false)
		sink(&res, run)
	}
	page(run.Start)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for idx := run.Start + 1; idx < run.End; idx++ {
		page(idx)
	}
	runtime.ReadMemStats(&after)
	if res.part == nil || len(res.part.rowGid) != tb.Heap.NumPages()*12 {
		t.Fatalf("the run's last page carries no partial of the run's %d rows", tb.Heap.NumPages()*12)
	}
	return after.Mallocs - before.Mallocs
}

// pumpFixturePages is how many pages a heap needs for a pool of workers
// producers to exercise the claim window: two windows and half a run, so
// the ring wraps twice and the lap ends in a short run.
func pumpFixturePages(workers int) int {
	return 2*workers*storage.DefaultMorselRunLength + storage.DefaultMorselRunLength/2
}

// pagedTable builds a table of (k, v = k mod m) over the given number of
// 256-byte pages, 12 rows each: many pages from few rows.
func pagedTable(t *testing.T, pages, m int) *catalog.Table {
	t.Helper()
	tb := &catalog.Table{Name: "paged", Heap: storage.NewHeap(256), Schema: catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	)}
	for i := 0; i < 12*pages; i++ {
		tb.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i % m))})
	}
	if tb.Heap.NumPages() != pages {
		t.Fatalf("%d rows filled %d pages, want %d", 12*pages, tb.Heap.NumPages(), pages)
	}
	return tb
}

// A filter is compiled once per statement, when the plan is lowered — the
// only time it allocates — and each page then runs the compiled program in
// its runner's stage scratch: whatever the predicate's shape, the pages of
// a warm scan allocate nothing. The shapes are scan_filter's five, as scan
// filters and as a filter stage, plus a NOT over an IN list and a negated
// range.
func TestCompiledFilterAllocatesNothingPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector append(s, make(...)...) allocates its operand: fragment.run's meter reset then allocates per page")
	}
	tb := lineitemLike(t, 3000)
	qty, ship := tb.Schema.Col("qty"), tb.Schema.Col("ship")
	eq := func(v int64) expr.Expr { return expr.Cmp{Op: expr.EQ, L: qty, R: expr.Const{V: expr.Int(v)}} }
	preds := map[string]expr.Expr{
		"NOT IN":      expr.Not{E: expr.Or{Terms: []expr.Expr{eq(3), eq(29), eq(3), eq(41)}}},
		"NOT BETWEEN": expr.Not{E: expr.Between{E: ship, Lo: expr.Date(8800), Hi: expr.Date(9100)}},
	}
	for name, shape := range compositePlans(tb) {
		preds[name] = shape.pred
	}
	pages := tb.Heap.NumPages()
	for name, pred := range preds {
		for _, p := range []plan.Node{plan.NewScan(tb, pred), plan.NewFilter(plan.NewScan(tb, nil), pred)} {
			f := heapFragment(p, nil)
			compiled := f.scanFilter
			if len(f.stages) > 0 {
				compiled = f.stages[0].pred
			}
			if compiled == nil {
				t.Fatalf("%s (%T): lowering compiled no filter", name, p)
			}
			var (
				ws   stageScratch
				res  morselResult
				rows int
			)
			runAll := func() {
				rows = 0
				for idx := 0; idx < pages; idx++ {
					f.run(&res, idx, tb.Heap.Page(idx), &ws, false)
					rows += res.rows
				}
			}
			runAll()
			if rows == 0 || int64(rows) == tb.Heap.NumRows() {
				t.Fatalf("%s: %d of %d rows survive; the test would pin no narrowing filter", name, rows, tb.Heap.NumRows())
			}
			if allocs := testing.AllocsPerRun(5, runAll) / float64(pages); allocs != 0 {
				t.Errorf("%s (%T): %.2f allocations per page, want 0", name, p, allocs)
			}
		}
	}
}
