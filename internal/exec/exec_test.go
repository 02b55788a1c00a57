package exec

import (
	"math"
	"sort"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/oracle"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/storage"
)

// testCtx returns a context on a fresh CPU with unit costs.
func testCtx() (*Ctx, *sim.Clock) {
	clock := sim.NewClock()
	c := cpu.New(cpu.E8500(), clock)
	return &Ctx{
		CPU: c,
		Cost: CostModel{
			ScanTupleCycles:       10,
			ScanTupleStallCycles:  5,
			PageStreamCyclesPerKB: 1,
			BuildCycles:           10,
			BuildStallCycles:      5,
			ProbeCycles:           10,
			ProbeStallCycles:      5,
			MatchCycles:           5,
			AggCycles:             10,
			AggStallCycles:        5,
			SortCmpCycles:         3,
			ResultRowCycles:       5,
			ClientRowCycles:       5,
		},
	}, clock
}

func numbersTable(t *testing.T, name string, n int) *catalog.Table {
	t.Helper()
	tb := catalog.NewTable(name, catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	for i := 0; i < n; i++ {
		tb.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i * 10))})
	}
	return tb
}

func collect(t *testing.T, op Operator, ctx *Ctx) []expr.Row {
	t.Helper()
	var rows []expr.Row
	if err := Drain(ctx, op, func(b *expr.Batch) error {
		rows = b.AppendRowsTo(rows)
		return nil
	}); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows
}

func TestScanAllRows(t *testing.T) {
	ctx, clock := testCtx()
	tb := numbersTable(t, "t", 100)
	op := CompileParallel(plan.NewScan(tb, nil), 1)
	rows := collect(t, op, ctx)
	if len(rows) != 100 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	if clock.Now() == 0 {
		t.Fatal("scan charged no time")
	}
}

func TestScanWithFilter(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 100)
	pred := expr.Cmp{Op: expr.LT, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(10)}}
	rows := collect(t, CompileParallel(plan.NewScan(tb, pred), 1), ctx)
	if len(rows) != 10 {
		t.Fatalf("filtered scan returned %d rows, want 10", len(rows))
	}
}

func TestScanChargesPoolAccesses(t *testing.T) {
	ctx, clock := testCtx()
	tb := numbersTable(t, "t", 500)
	pool := storage.NewBufferPool(1<<20, readerFunc(func(n int64, seq bool) {
		clock.Advance(sim.Millisecond)
	}))
	ctx.Pool = pool
	collect(t, CompileParallel(plan.NewScan(tb, nil), 1), ctx)
	if pool.Stats().Misses != int64(tb.Heap.NumPages()) {
		t.Fatalf("pool misses %d, want one per page %d", pool.Stats().Misses, tb.Heap.NumPages())
	}
}

type readerFunc func(int64, bool)

func (f readerFunc) BlockingRead(n int64, sequential bool) { f(n, sequential) }

func TestPageHookRunsPerPage(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 500)
	var hooks int
	ctx.PageHook = func() { hooks++ }
	collect(t, CompileParallel(plan.NewScan(tb, nil), 1), ctx)
	if hooks != tb.Heap.NumPages() {
		t.Fatalf("hooks = %d, want %d", hooks, tb.Heap.NumPages())
	}
}

func TestFilterOperator(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 20)
	p := plan.NewFilter(plan.NewScan(tb, nil),
		expr.Cmp{Op: expr.GE, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(15)}})
	rows := collect(t, CompileParallel(p, 1), ctx)
	if len(rows) != 5 {
		t.Fatalf("filter returned %d rows", len(rows))
	}
}

func TestHashJoinInner(t *testing.T) {
	ctx, _ := testCtx()
	left := numbersTable(t, "l", 10)  // k: 0..9
	right := numbersTable(t, "r", 20) // k: 0..19
	j := plan.NewHashJoin(
		plan.NewScan(left, nil), plan.NewScan(right, nil),
		left.Schema.MustIndex("k"), right.Schema.MustIndex("k"), nil)
	rows := collect(t, CompileParallel(j, 1), ctx)
	if len(rows) != 10 {
		t.Fatalf("join produced %d rows, want 10", len(rows))
	}
	// Output is buildRow ++ probeRow: 4 columns.
	if len(rows[0]) != 4 {
		t.Fatalf("join row width %d, want 4", len(rows[0]))
	}
	for _, r := range rows {
		if r[0].I != r[2].I {
			t.Fatalf("join keys differ: %v", r)
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	ctx, _ := testCtx()
	dup := catalog.NewTable("d", catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt}))
	dup.Insert(expr.Row{expr.Int(1)})
	dup.Insert(expr.Row{expr.Int(1)})
	probe := numbersTable(t, "p", 3)
	j := plan.NewHashJoin(plan.NewScan(dup, nil), plan.NewScan(probe, nil),
		0, probe.Schema.MustIndex("k"), nil)
	rows := collect(t, CompileParallel(j, 1), ctx)
	if len(rows) != 2 {
		t.Fatalf("1:N join produced %d rows, want 2", len(rows))
	}
}

func TestHashJoinResidual(t *testing.T) {
	ctx, _ := testCtx()
	left := numbersTable(t, "l", 10)
	right := numbersTable(t, "r", 10)
	j := plan.NewHashJoin(
		plan.NewScan(left, nil), plan.NewScan(right, nil),
		left.Schema.MustIndex("k"), right.Schema.MustIndex("k"), nil)
	// Residual on the concatenated row: keep only k < 3.
	j.Residual = expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 0}, R: expr.Const{V: expr.Int(3)}}
	rows := collect(t, CompileParallel(j, 1), ctx)
	if len(rows) != 3 {
		t.Fatalf("residual join produced %d rows, want 3", len(rows))
	}
}

func TestProject(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 5)
	p := plan.NewProject(plan.NewScan(tb, nil),
		[]expr.Expr{expr.Arith{Op: expr.Add, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(100)}}},
		[]string{"k100"}, []expr.Kind{expr.KindFloat})
	rows := collect(t, CompileParallel(p, 1), ctx)
	if len(rows) != 5 || rows[2][0].AsFloat() != 102 {
		t.Fatalf("project rows = %v", rows)
	}
}

func TestHashAggSumCountMinMaxAvg(t *testing.T) {
	ctx, _ := testCtx()
	tb := catalog.NewTable("g", catalog.NewSchema(
		catalog.Column{Name: "grp", Kind: expr.KindString},
		catalog.Column{Name: "x", Kind: expr.KindFloat},
	))
	for i, g := range []string{"a", "b", "a", "a", "b"} {
		tb.Insert(expr.Row{expr.String(g), expr.Float(float64(i + 1))})
	}
	// a: 1,3,4; b: 2,5.
	col := tb.Schema.Col("x")
	a := plan.NewAgg(plan.NewScan(tb, nil), []int{0}, []plan.AggSpec{
		{Func: plan.Sum, Arg: col, Name: "s"},
		{Func: plan.Count, Name: "c"},
		{Func: plan.Min, Arg: col, Name: "mn"},
		{Func: plan.Max, Arg: col, Name: "mx"},
		{Func: plan.Avg, Arg: col, Name: "av"},
	})
	rows := collect(t, CompileParallel(a, 1), ctx)
	if len(rows) != 2 {
		t.Fatalf("agg produced %d groups", len(rows))
	}
	byGroup := map[string]expr.Row{}
	for _, r := range rows {
		byGroup[r[0].S] = r
	}
	ra := byGroup["a"]
	if ra[1].F != 8 || ra[2].I != 3 || ra[3].F != 1 || ra[4].F != 4 || ra[5].F != 8.0/3 {
		t.Fatalf("group a aggregates wrong: %v", ra)
	}
	rb := byGroup["b"]
	if rb[1].F != 7 || rb[2].I != 2 {
		t.Fatalf("group b aggregates wrong: %v", rb)
	}
}

func TestAggEmptyInput(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 0)
	a := plan.NewAgg(plan.NewScan(tb, nil), []int{0},
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	rows := collect(t, CompileParallel(a, 1), ctx)
	if len(rows) != 0 {
		t.Fatalf("empty-input agg produced %d rows", len(rows))
	}
}

func TestHashJoinNullKeysDoNotMatch(t *testing.T) {
	// SQL equality is false on NULL: {NULL,1} ⋈ {NULL,1} is one row, not
	// two. The pre-fix executor matched NULL build keys with NULL probe
	// keys because both landed on the same hash-table entry.
	ctx, _ := testCtx()
	mk := func(name string) *catalog.Table {
		tb := catalog.NewTable(name, catalog.NewSchema(
			catalog.Column{Name: name + "k", Kind: expr.KindInt}))
		tb.Insert(expr.Row{expr.Null()})
		tb.Insert(expr.Row{expr.Int(1)})
		return tb
	}
	j := plan.NewHashJoin(plan.NewScan(mk("l"), nil), plan.NewScan(mk("r"), nil), 0, 0, nil)
	rows := collect(t, CompileParallel(j, 1), ctx)
	if len(rows) != 1 {
		t.Fatalf("NULL-key join produced %d rows, want 1", len(rows))
	}
	if rows[0][0].I != 1 || rows[0][1].I != 1 {
		t.Fatalf("joined row = %v, want (1,1)", rows[0])
	}
}

func TestGlobalAggOverEmptyInput(t *testing.T) {
	// A global aggregate (no GROUP BY) over zero rows returns exactly one
	// row: COUNT 0, everything else NULL. The pre-fix executor returned
	// zero rows.
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 0)
	v := tb.Schema.Col("v")
	a := plan.NewAgg(plan.NewScan(tb, nil), nil, []plan.AggSpec{
		{Func: plan.Count, Name: "c"},
		{Func: plan.Sum, Arg: v, Name: "s"},
		{Func: plan.Min, Arg: v, Name: "mn"},
		{Func: plan.Max, Arg: v, Name: "mx"},
		{Func: plan.Avg, Arg: v, Name: "av"},
	})
	rows := collect(t, CompileParallel(a, 1), ctx)
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input produced %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r[0].Kind != expr.KindInt || r[0].I != 0 {
		t.Fatalf("COUNT(*) over empty input = %v, want 0", r[0])
	}
	for i, name := range []string{"sum", "min", "max", "avg"} {
		if !r[1+i].IsNull() {
			t.Fatalf("%s over empty input = %v, want NULL", name, r[1+i])
		}
	}
}

func TestGroupKeysAreInjective(t *testing.T) {
	ctx, _ := testCtx()
	// ("x\x00","y") and ("x","\x00y") collapsed under the old
	// string+separator keys; they are distinct groups.
	tb := catalog.NewTable("g", catalog.NewSchema(
		catalog.Column{Name: "a", Kind: expr.KindString},
		catalog.Column{Name: "b", Kind: expr.KindString},
	))
	tb.Insert(expr.Row{expr.String("x\x00"), expr.String("y")})
	tb.Insert(expr.Row{expr.String("x"), expr.String("\x00y")})
	a := plan.NewAgg(plan.NewScan(tb, nil), []int{0, 1},
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	if rows := collect(t, CompileParallel(a, 1), ctx); len(rows) != 2 {
		t.Fatalf("boundary-shifted groups collapsed: %d groups, want 2", len(rows))
	}
}

func TestGroupByFoldsNegativeZero(t *testing.T) {
	// -0 and +0 are one value under Compare, join keys and IN sets, so
	// they are one group; the pre-fix keys encoded their distinct bits.
	tb := catalog.NewTable("z", catalog.NewSchema(catalog.Column{Name: "x", Kind: expr.KindFloat}))
	tb.Insert(expr.Row{expr.Float(0)})
	tb.Insert(expr.Row{expr.Float(math.Copysign(0, -1))})
	a := plan.NewAgg(plan.NewScan(tb, nil), []int{0},
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	for _, workers := range []int{1, 4} {
		rows := runWorkers(t, a, workers, false).rows
		if len(rows) != 1 || rows[0][0].F != 0 || rows[0][1].I != 2 {
			t.Fatalf("workers=%d: groups %v, want one zero group of count 2", workers, rows)
		}
	}
}

func TestAggOutputOrderDeterministic(t *testing.T) {
	// Regression for the map-iteration emission order: groups come out in
	// sorted encoded-group-key order — a pure function of the group set —
	// never in map, first-seen, or worker-dependent order. Feeding the
	// same rows in two different orders must emit byte-identical results.
	build := func(groups []string) *catalog.Table {
		tb := catalog.NewTable("t", catalog.NewSchema(
			catalog.Column{Name: "g", Kind: expr.KindString},
			catalog.Column{Name: "one", Kind: expr.KindInt},
		))
		for _, g := range groups {
			tb.Insert(expr.Row{expr.String(g), expr.Int(1)})
		}
		return tb
	}
	run := func(tb *catalog.Table) []expr.Row {
		ctx, _ := testCtx()
		a := plan.NewAgg(plan.NewScan(tb, nil), []int{0},
			[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
		return collect(t, CompileParallel(a, 1), ctx)
	}

	// Same multiset, different first-seen orders.
	a := run(build([]string{"pear", "apple", "plum", "apple", "pear", "fig"}))
	b := run(build([]string{"fig", "plum", "pear", "apple", "apple", "pear"}))
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("got %d and %d groups, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("row %d differs across input orders: %v vs %v", i, a[i], b[i])
		}
	}

	// The order is exactly ascending encoded group keys.
	want := make([]string, len(a))
	for i, r := range a {
		want[i] = oracle.GroupKey(r[0])
	}
	if !sort.StringsAreSorted(want) {
		t.Fatalf("emission order is not sorted by encoded group key: %v", a)
	}

	// Map iteration is randomized per run; repeated runs must not wobble.
	for i := 0; i < 5; i++ {
		c := run(build([]string{"pear", "apple", "plum", "apple", "pear", "fig"}))
		for j := range a {
			if a[j][0] != c[j][0] {
				t.Fatalf("repeat %d reordered groups: %v vs %v", i, a, c)
			}
		}
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	ctx, _ := testCtx()
	tb := catalog.NewTable("t", catalog.NewSchema(
		catalog.Column{Name: "g", Kind: expr.KindString},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	tb.Insert(expr.Row{expr.String("a"), expr.Int(1)})
	tb.Insert(expr.Row{expr.String("a"), expr.Null()})
	tb.Insert(expr.Row{expr.String("b"), expr.Null()})
	v := tb.Schema.Col("v")
	a := plan.NewAgg(plan.NewScan(tb, nil), []int{0}, []plan.AggSpec{
		{Func: plan.Count, Arg: v, Name: "cnt_v"}, // COUNT(v)
		{Func: plan.Count, Name: "cnt_star"},      // COUNT(*)
	})
	rows := collect(t, CompileParallel(a, 1), ctx)
	if len(rows) != 2 {
		t.Fatalf("agg produced %d groups, want 2", len(rows))
	}
	byGroup := map[string]expr.Row{}
	for _, r := range rows {
		byGroup[r[0].S] = r
	}
	if ra := byGroup["a"]; ra[1].I != 1 || ra[2].I != 2 {
		t.Fatalf("group a: COUNT(v)=%v COUNT(*)=%v, want 1 and 2", ra[1], ra[2])
	}
	if rb := byGroup["b"]; rb[1].I != 0 || rb[2].I != 1 {
		t.Fatalf("group b: COUNT(v)=%v COUNT(*)=%v, want 0 and 1", rb[1], rb[2])
	}

	// Without GROUP BY a batch with no NULL argument counts in one step;
	// COUNT(v) and the count beside AVG(v) must still skip the NULLs.
	global := plan.NewAgg(plan.NewScan(tb, nil), nil, []plan.AggSpec{
		{Func: plan.Count, Arg: v, Name: "cnt_v"},
		{Func: plan.Count, Name: "cnt_star"},
		{Func: plan.Avg, Arg: v, Name: "avg_v"},
	})
	for _, workers := range []int{0, 1, 4} {
		rows := collect(t, CompileParallel(global, workers), ctx)
		if len(rows) != 1 || rows[0][0].I != 1 || rows[0][1].I != 3 || rows[0][2].F != 1 {
			t.Fatalf("workers %d: global COUNT(v), COUNT(*), AVG(v) = %v, want [1 3 1]", workers, rows)
		}
	}
}

func TestSortAscDesc(t *testing.T) {
	ctx, _ := testCtx()
	tb := catalog.NewTable("s", catalog.NewSchema(
		catalog.Column{Name: "x", Kind: expr.KindInt}))
	for _, v := range []int64{3, 1, 4, 1, 5} {
		tb.Insert(expr.Row{expr.Int(v)})
	}
	asc := collect(t, CompileParallel(plan.NewSort(plan.NewScan(tb, nil), plan.SortKey{Col: 0}), 1), ctx)
	for i := 1; i < len(asc); i++ {
		if asc[i][0].I < asc[i-1][0].I {
			t.Fatalf("not ascending: %v", asc)
		}
	}
	desc := collect(t, CompileParallel(plan.NewSort(plan.NewScan(tb, nil), plan.SortKey{Col: 0, Desc: true}), 1), ctx)
	for i := 1; i < len(desc); i++ {
		if desc[i][0].I > desc[i-1][0].I {
			t.Fatalf("not descending: %v", desc)
		}
	}
}

func TestLimit(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 50)
	rows := collect(t, CompileParallel(plan.NewLimit(plan.NewScan(tb, nil), 7), 1), ctx)
	if len(rows) != 7 {
		t.Fatalf("limit emitted %d rows", len(rows))
	}
}

func TestLimitTruncatesMidBatch(t *testing.T) {
	// When the limit boundary falls inside a batch, exactly the first N
	// rows come out — in order, across the batch seam.
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 1200) // ~409 rows per page: limit spans pages
	rows := collect(t, CompileParallel(plan.NewLimit(plan.NewScan(tb, nil), 450), 1), ctx)
	if len(rows) != 450 {
		t.Fatalf("limit emitted %d rows, want 450", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d has key %d: truncation reordered or dropped rows", i, r[0].I)
		}
	}

	// Limit inside the very first batch: the returned batch holds exactly
	// N rows even though the input batch held a whole page.
	ctx2, _ := testCtx()
	op := CompileParallel(plan.NewLimit(plan.NewScan(tb, nil), 7), 1)
	if err := op.Open(ctx2); err != nil {
		t.Fatal(err)
	}
	defer op.Close(ctx2)
	b, err := op.Next(ctx2)
	if err != nil || b == nil {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if b.Len() != 7 {
		t.Fatalf("mid-batch truncation returned %d rows, want 7", b.Len())
	}
	if next, _ := op.Next(ctx2); next != nil {
		t.Fatalf("limit served rows past the boundary: %v", next.Rows())
	}
}

func TestAmplificationScalesTime(t *testing.T) {
	tb := numbersTable(t, "t", 200)
	run := func(amp float64) sim.Duration {
		ctx, clock := testCtx()
		ctx.Amplify = amp
		collect(t, CompileParallel(plan.NewScan(tb, nil), 1), ctx)
		return clock.Now().Sub(0)
	}
	t1, t10 := run(1), run(10)
	ratio := t10.Seconds() / t1.Seconds()
	if ratio < 9.9 || ratio > 10.1 {
		t.Fatalf("amplification ×10 scaled time by %v", ratio)
	}
}

func TestFlushDrainsAccumulators(t *testing.T) {
	ctx, clock := testCtx()
	ctx.Charge(cpu.Compute, 1e6)
	before := clock.Now()
	ctx.Flush()
	if clock.Now() == before {
		t.Fatal("flush did not run charged work")
	}
	ctx.Flush() // second flush is a no-op
	if clock.Now() != clock.Now() {
		t.Fatal("unreachable")
	}
}

func TestCompileUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node did not panic")
		}
	}()
	CompileParallel(nil, 1)
}

// --- batch-pipeline semantics ---

func TestScanBatchesArePageGranular(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 3000)
	op := CompileParallel(plan.NewScan(tb, nil), 1)
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close(ctx)
	var total int
	batches := 0
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		total += b.Len()
	}
	if total != 3000 {
		t.Fatalf("scanned %d rows", total)
	}
	if batches != tb.Heap.NumPages() {
		t.Fatalf("got %d batches, want one per page (%d)", batches, tb.Heap.NumPages())
	}
}

// An inline pump refills one page record, so the fragment leaf hands out
// the same batch on every Next: nothing is allocated per page.
func TestScanReusesBatch(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 1000)
	k := tb.Schema.Col("k")
	for name, p := range map[string]plan.Node{
		"scan": plan.NewScan(tb, nil),
		"filter-project": plan.NewProject(
			plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{Op: expr.GE, L: k, R: expr.Const{V: expr.Int(3)}}),
			[]expr.Expr{k}, []string{"k"}, []expr.Kind{expr.KindInt}),
	} {
		op := CompileParallel(p, 1)
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		b1, _ := op.Next(ctx)
		b2, _ := op.Next(ctx)
		if b1 == nil || b2 == nil {
			t.Fatalf("%s: expected at least two batches", name)
		}
		if b1 != b2 {
			t.Fatalf("%s: an inline fragment leaf should recycle its output batch across Next calls", name)
		}
		op.Close(ctx)
	}
}

func TestLimitStillRunsInputToCompletion(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 2000)
	var pages int
	ctx.PageHook = func() { pages++ }
	rows := collect(t, CompileParallel(plan.NewLimit(plan.NewScan(tb, nil), 3), 1), ctx)
	if len(rows) != 3 {
		t.Fatalf("limit emitted %d rows", len(rows))
	}
	if pages != tb.Heap.NumPages() {
		t.Fatalf("limit scanned %d pages, want the full heap (%d): no early termination", pages, tb.Heap.NumPages())
	}
	// The final limited batch must survive the input drain.
	if rows[0][0].I != 0 || rows[2][0].I != 2 {
		t.Fatalf("limited rows corrupted by input drain: %v", rows)
	}
}

func TestBatchAndRowExecutionAgree(t *testing.T) {
	// The vectorized pipeline and naive row-at-a-time evaluation of the
	// same plan must produce identical rows and identical charged cycles.
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 500)
	pred := expr.Cmp{Op: expr.LT, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(100)}}

	rows := collect(t, CompileParallel(plan.NewScan(tb, pred), 1), ctx)

	var want []expr.Row
	var rowMeter, batchMeter expr.Cost
	heap := tb.Heap
	for i := 0; i < heap.NumPages(); i++ {
		for _, r := range heap.Page(i).Rows() {
			if pred.Eval(r, &rowMeter).Truthy() {
				want = append(want, r)
			}
		}
		expr.FilterBatch(pred, &heap.Page(i).Data, nil, &batchMeter)
	}
	if len(rows) != len(want) {
		t.Fatalf("batch path %d rows, row path %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i][0].I != want[i][0].I || rows[i][1].I != want[i][1].I {
			t.Fatalf("row %d differs: %v vs %v", i, rows[i], want[i])
		}
	}
	if rowMeter.Cycles != batchMeter.Cycles {
		t.Fatalf("charged cycles differ: row %v vs batch %v", rowMeter.Cycles, batchMeter.Cycles)
	}
}
