package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/energy"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/storage"
)

// outcome captures everything a run charges to the simulated machine, for
// exact comparison across worker counts.
type outcome struct {
	rows   []expr.Row
	now    sim.Time
	stats  cpu.Stats
	joules energy.Joules
	hooks  int
	pool   storage.PoolStats
}

// runWorkers executes the plan with the given worker count on a fresh
// simulated machine (optionally disk-backed) and returns the outcome.
// workers <= 1 runs every pump inline.
func runWorkers(t *testing.T, p plan.Node, workers int, withPool bool) outcome {
	t.Helper()
	return runWorkersPruning(t, p, workers, withPool, false)
}

// runWorkersPruning is runWorkers with zone-map pruning as given.
func runWorkersPruning(t *testing.T, p plan.Node, workers int, withPool, pruning bool) outcome {
	t.Helper()
	ctx, clock := testCtx()
	ctx.ZoneMapPruning = pruning
	var out outcome
	if withPool {
		ctx.Pool = storage.NewBufferPool(1<<20, readerFunc(func(n int64, seq bool) {
			clock.Advance(sim.Millisecond)
		}))
	}
	ctx.PageHook = func() { out.hooks++ }
	if err := Drain(ctx, CompileParallel(p, workers), func(b *expr.Batch) error {
		out.rows = b.AppendRowsTo(out.rows)
		return nil
	}); err != nil {
		t.Fatalf("drain (workers=%d): %v", workers, err)
	}
	ctx.Flush()
	out.now = clock.Now()
	out.stats = ctx.CPU.Stats()
	out.joules = ctx.CPU.Trace().Energy(0, clock.Now())
	if ctx.Pool != nil {
		out.pool = ctx.Pool.Stats()
	}
	return out
}

// assertOutcomesIdentical requires bit-identical simulation results: same
// rows, same simulated clock, same charged cycles by kind, same joules,
// same pool traffic and page hooks.
func assertOutcomesIdentical(t *testing.T, want, got outcome, label string) {
	t.Helper()
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if len(got.rows[i]) != len(want.rows[i]) {
			t.Fatalf("%s: row %d arity differs", label, i)
		}
		for c := range got.rows[i] {
			if got.rows[i][c] != want.rows[i][c] {
				t.Fatalf("%s: row %d col %d: %v != %v", label, i, c, got.rows[i][c], want.rows[i][c])
			}
		}
	}
	if got.now != want.now {
		t.Fatalf("%s: simulated time %v != %v", label, got.now, want.now)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: cpu stats differ:\n got %+v\nwant %+v", label, got.stats, want.stats)
	}
	if got.joules != want.joules {
		t.Fatalf("%s: joules %v != %v", label, got.joules, want.joules)
	}
	if got.hooks != want.hooks {
		t.Fatalf("%s: page hooks %d != %d", label, got.hooks, want.hooks)
	}
	if got.pool != want.pool {
		t.Fatalf("%s: pool stats %+v != %+v", label, got.pool, want.pool)
	}
}

// groupedTable builds a table exercising the grouped-aggregation edge
// cases: a string group column with periodic NULL keys, an int key, and a
// float measure with periodic NULLs and enough irregular values that any
// reordering of SUM's float additions would change result bits.
func groupedTable(t *testing.T, name string, n int) *catalog.Table {
	t.Helper()
	tb := catalog.NewTable(name, catalog.NewSchema(
		catalog.Column{Name: "g", Kind: expr.KindString},
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "x", Kind: expr.KindFloat},
	))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < n; i++ {
		g := expr.String(names[i%len(names)])
		if i%11 == 0 {
			g = expr.Null()
		}
		x := expr.Float(float64(i)*0.37 - float64(i%13)/7)
		if i%7 == 0 {
			x = expr.Null()
		}
		tb.Insert(expr.Row{g, expr.Int(int64(i)), x})
	}
	return tb
}

// allNullKeyTable builds a table whose group column is NULL on every row.
func allNullKeyTable(t *testing.T, name string, n int) *catalog.Table {
	t.Helper()
	tb := catalog.NewTable(name, catalog.NewSchema(
		catalog.Column{Name: "g", Kind: expr.KindString},
		catalog.Column{Name: "x", Kind: expr.KindFloat},
	))
	for i := 0; i < n; i++ {
		tb.Insert(expr.Row{expr.Null(), expr.Float(float64(i) * 1.25)})
	}
	return tb
}

// fullAggSpecs is every aggregate function over the measure column at
// position x, plus both COUNT forms.
func fullAggSpecs(x expr.Expr) []plan.AggSpec {
	return []plan.AggSpec{
		{Func: plan.Sum, Arg: x, Name: "s"},
		{Func: plan.Count, Name: "c_star"},
		{Func: plan.Count, Arg: x, Name: "c_x"},
		{Func: plan.Min, Arg: x, Name: "mn"},
		{Func: plan.Max, Arg: x, Name: "mx"},
		{Func: plan.Avg, Arg: x, Name: "av"},
	}
}

// parallelPlans is the matrix of plan shapes the pump must run
// bit-identically at every worker count: bare and filtered scans
// (fast-path and interpreted predicates), filter→project chains folded
// into the fragment, pre-aggregation (grouped, global, empty-input,
// all-NULL-key), joins probed by their own pump (NULL/duplicate probe keys,
// empty probe side, large and small builds), and fragment sorts (ASC/DESC,
// NULL keys at either end, duplicate keys, projected fragments, empty
// input, single page).
func parallelPlans(t *testing.T) map[string]plan.Node {
	t.Helper()
	tb := numbersTable(t, "t", 5000)
	// "join-of-parallel-scans" builds on ten thousand rows; the
	// grouped-table join below on a few thousand with NULL and duplicate keys.
	other := numbersTable(t, "o", 10000)
	gt := groupedTable(t, "g", 4000)
	nk := allNullKeyTable(t, "nk", 900)
	onePage := numbersTable(t, "p1", 50)
	k, v := tb.Schema.Col("k"), tb.Schema.Col("v")
	gk, gx := gt.Schema.Col("k"), gt.Schema.Col("x")
	interp := expr.And{Terms: []expr.Expr{
		expr.Cmp{Op: expr.GE, L: k, R: expr.Const{V: expr.Int(100)}},
		expr.Cmp{Op: expr.LT, L: v, R: expr.Const{V: expr.Int(40000)}},
	}}
	return map[string]plan.Node{
		"scan":          plan.NewScan(tb, nil),
		"filtered-scan": plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(700)}}),
		"filter-project-chain": plan.NewProject(
			plan.NewFilter(plan.NewScan(tb, nil), interp),
			[]expr.Expr{expr.Arith{Op: expr.Add, L: k, R: v}, k},
			[]string{"sum", "k"}, []expr.Kind{expr.KindFloat, expr.KindInt}),
		"agg-over-parallel-scan": plan.NewAgg(
			plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(2000)}}),
			nil,
			[]plan.AggSpec{{Func: plan.Sum, Arg: v, Name: "s"}, {Func: plan.Count, Name: "c"}}),
		"group-agg-over-fragment": plan.NewAgg(
			plan.NewScan(gt, expr.Cmp{Op: expr.LT, L: gk, R: expr.Const{V: expr.Int(3700)}}),
			[]int{gt.Schema.MustIndex("g")},
			fullAggSpecs(gx)),
		"group-agg-over-projected-fragment": plan.NewAgg(
			plan.NewProject(
				plan.NewFilter(plan.NewScan(gt, nil),
					expr.Cmp{Op: expr.GE, L: gk, R: expr.Const{V: expr.Int(250)}}),
				[]expr.Expr{gt.Schema.Col("g"), expr.Arith{Op: expr.Mul, L: gx, R: expr.Const{V: expr.Float(1.01)}}},
				[]string{"g", "x2"}, []expr.Kind{expr.KindString, expr.KindFloat}),
			[]int{0},
			[]plan.AggSpec{
				{Func: plan.Sum, Arg: expr.Col{Idx: 1}, Name: "s"},
				{Func: plan.Avg, Arg: expr.Col{Idx: 1}, Name: "av"},
			}),
		"group-agg-empty-input": plan.NewAgg(
			plan.NewScan(gt, expr.Cmp{Op: expr.LT, L: gk, R: expr.Const{V: expr.Int(-1)}}),
			[]int{gt.Schema.MustIndex("g")},
			fullAggSpecs(gx)),
		"agg-all-null-keys": plan.NewAgg(
			plan.NewScan(nk, nil),
			[]int{nk.Schema.MustIndex("g")},
			fullAggSpecs(nk.Schema.Col("x"))),
		"join-of-parallel-scans": plan.NewHashJoin(
			plan.NewScan(other, nil),
			plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(600)}}),
			other.Schema.MustIndex("k"), tb.Schema.MustIndex("k"), nil),
		"join-dup-and-null-keys-residual": withResidual(plan.NewHashJoin(
			plan.NewScan(gt, nil), // g repeats per group and is NULL every 11th row
			plan.NewScan(gt, expr.Cmp{Op: expr.LT, L: gk, R: expr.Const{V: expr.Int(300)}}),
			gt.Schema.MustIndex("g"), gt.Schema.MustIndex("g"), nil),
			expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 1}, R: expr.Col{Idx: 4}}),
		"join-empty-probe-side": plan.NewHashJoin(
			plan.NewScan(tb, nil),
			plan.NewScan(gt, expr.Cmp{Op: expr.LT, L: gk, R: expr.Const{V: expr.Int(-1)}}),
			tb.Schema.MustIndex("k"), gt.Schema.MustIndex("k"), nil),
		"sort-limit": plan.NewLimit(
			plan.NewSort(plan.NewScan(tb, nil), plan.SortKey{Col: 0, Desc: true}), 37),
		// g ascending puts its NULL keys first and repeats five group names
		// (duplicate primaries); x descending puts its NULL measures last.
		"sort-multi-key-nulls": plan.NewSort(plan.NewScan(gt, nil),
			plan.SortKey{Col: gt.Schema.MustIndex("g")},
			plan.SortKey{Col: gt.Schema.MustIndex("x"), Desc: true}),
		// A single heavily duplicated DESC key: almost every comparison ties
		// and falls through to arrival order, the stability property the
		// parallel sort must reproduce through global row ordinals.
		"sort-desc-dup-keys": plan.NewSort(
			plan.NewScan(gt, expr.Cmp{Op: expr.GE, L: gk, R: expr.Const{V: expr.Int(500)}}),
			plan.SortKey{Col: gt.Schema.MustIndex("g"), Desc: true}),
		"sort-projected-fragment": plan.NewSort(
			plan.NewProject(
				plan.NewFilter(plan.NewScan(tb, nil), interp),
				[]expr.Expr{expr.Arith{Op: expr.Add, L: k, R: v}, k},
				[]string{"sum", "k"}, []expr.Kind{expr.KindFloat, expr.KindInt}),
			plan.SortKey{Col: 0, Desc: true}),
		"sort-empty-input": plan.NewSort(
			plan.NewScan(gt, expr.Cmp{Op: expr.LT, L: gk, R: expr.Const{V: expr.Int(-1)}}),
			plan.SortKey{Col: gt.Schema.MustIndex("g")}),
		"sort-single-page": plan.NewSort(plan.NewScan(onePage, nil),
			plan.SortKey{Col: 0, Desc: true}),
	}
}

// withResidual attaches a residual predicate built against the join's
// concatenated schema.
func withResidual(j *plan.HashJoin, residual expr.Expr) *plan.HashJoin {
	j.Residual = residual
	return j
}

func TestParallelMatchesSerialBitIdentically(t *testing.T) {
	// Shapes whose serial run legitimately produces no rows.
	emptyOK := map[string]bool{
		"group-agg-empty-input": true,
		"sort-empty-input":      true,
		"join-empty-probe-side": true,
	}
	for name, p := range parallelPlans(t) {
		for _, withPool := range []bool{false, true} {
			serial := runWorkers(t, p, 1, withPool)
			if len(serial.rows) == 0 && !emptyOK[name] {
				// every other shape must produce rows for the test to bite
				t.Fatalf("%s: serial run produced no rows", name)
			}
			for _, w := range []int{0, 2, 3, 4, 8} {
				got := runWorkers(t, p, w, withPool)
				assertOutcomesIdentical(t, serial, got, name)
			}
		}
	}
}

func TestParallelRepeatedRunsBitIdentical(t *testing.T) {
	plans := parallelPlans(t)
	for _, name := range []string{
		"filter-project-chain", "group-agg-over-fragment",
		"sort-desc-dup-keys", "join-dup-and-null-keys-residual",
	} {
		p := plans[name]
		first := runWorkers(t, p, 4, true)
		for i := 0; i < 3; i++ {
			assertOutcomesIdentical(t, first, runWorkers(t, p, 4, true), name+"-repeat")
		}
	}
}

func TestParallelAggEarlyCloseStopsWorkers(t *testing.T) {
	ctx, _ := testCtx()
	gt := groupedTable(t, "g", 20000)
	p := plan.NewAgg(plan.NewScan(gt, nil), []int{0},
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	op := CompileParallel(p, 4)
	if got := opTree(op); got != "agg(pump)" {
		t.Fatalf("compiled to %s, want agg(pump)", got)
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

func TestParallelAggEmptyHeap(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 0)
	p := plan.NewAgg(plan.NewScan(tb, nil), []int{0},
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	rows := collect(t, CompileParallel(p, 4), ctx)
	if len(rows) != 0 {
		t.Fatalf("grouped agg over empty heap produced %d rows", len(rows))
	}

	// A global aggregate over an empty heap still yields its one row.
	ctx2, _ := testCtx()
	g := plan.NewAgg(plan.NewScan(tb, nil), nil,
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}, {Func: plan.Sum, Arg: tb.Schema.Col("v"), Name: "s"}})
	rows = collect(t, CompileParallel(g, 4), ctx2)
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("global agg over empty heap = %v, want one (0, NULL) row", rows)
	}
}

func TestCompileParallelFoldsFragments(t *testing.T) {
	tb := numbersTable(t, "t", 100)
	k := tb.Schema.Col("k")
	chain := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil),
			expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(10)}}),
		[]expr.Expr{k}, []string{"k"}, []expr.Kind{expr.KindInt})

	if got := opTree(CompileParallel(chain, 4)); got != "fused(pump)" {
		t.Fatalf("scan→filter→project chain compiled to %s, want one pump-driven fused operator", got)
	}
	// An agg over a fragment absorbs it: producers pre-aggregate their runs.
	agg := plan.NewAgg(chain, nil, []plan.AggSpec{{Func: plan.Count, Name: "c"}})
	if got := opTree(CompileParallel(agg, 4)); got != "agg(pump)" {
		t.Fatalf("agg over fragment compiled to %s, want agg(pump)", got)
	}

	// An agg over a non-fragment input takes an input operator; the chain
	// below the blocking input still folds into a pump-driven fused operator.
	overLimit := plan.NewAgg(plan.NewLimit(chain, 5), nil,
		[]plan.AggSpec{{Func: plan.Count, Name: "c"}})
	if got := opTree(CompileParallel(overLimit, 4)); got != "agg(limit(fused(pump)))" {
		t.Fatalf("agg over limit compiled to %s", got)
	}
}

// unwrapSpan returns the operator beneath its span wrappers (a LIMIT over a
// sort is two spans over one sort operator), for tests that look at what a
// plan lowered to.
func unwrapSpan(op Operator) Operator {
	for {
		w, ok := op.(*spanOp)
		if !ok {
			return op
		}
		op = w.inner
	}
}

// opTree renders the operator tree under op, span wrappers elided: each
// operator by its kind, over its input operator or its own pump.
func opTree(op Operator) string {
	input := func(in Operator) string {
		if in == nil {
			return "pump"
		}
		return opTree(in)
	}
	switch o := unwrapSpan(op).(type) {
	case *fusedOp:
		return "fused(" + input(o.input) + ")"
	case *hashJoinOp:
		return "join(" + opTree(o.build) + ", " + input(o.probe) + ")"
	case *aggOp:
		return "agg(" + input(o.input) + ")"
	case *sortOp:
		return "sort(" + input(o.input) + ")"
	case *limitOp:
		return "limit(" + opTree(o.input) + ")"
	default: // a shared-pass leaf
		return fmt.Sprintf("%T", o)
	}
}

// lowerings is every plan shape the lowering tests cover, with the operator
// tree each must become.
func lowerings(t *testing.T) map[string]struct {
	plan plan.Node
	tree string
} {
	tb := numbersTable(t, "t", 300)
	build := numbersTable(t, "b", 100)
	k := tb.Schema.Col("k")
	chain := plan.NewProject(
		plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{Op: expr.LT, L: k, R: expr.Const{V: expr.Int(250)}}),
		[]expr.Expr{k}, []string{"k"}, []expr.Kind{expr.KindInt})
	count := []plan.AggSpec{{Func: plan.Count, Name: "c"}}
	join := func(probe plan.Node) plan.Node {
		return plan.NewHashJoin(plan.NewScan(build, nil), probe, build.Schema.MustIndex("k"), 0, nil)
	}
	return map[string]struct {
		plan plan.Node
		tree string
	}{
		"scan":              {plan.NewScan(tb, nil), "fused(pump)"},
		"chain":             {chain, "fused(pump)"},
		"agg(chain)":        {plan.NewAgg(chain, nil, count), "agg(pump)"},
		"agg(limit(chain))": {plan.NewAgg(plan.NewLimit(chain, 5), nil, count), "agg(limit(fused(pump)))"},
		"sort(chain)":       {plan.NewSort(chain, plan.SortKey{Col: 0}), "sort(pump)"},
		"limit(sort(chain))": {plan.NewLimit(plan.NewSort(chain, plan.SortKey{Col: 0}), 7),
			"sort(pump)"},
		"sort(limit(chain))": {plan.NewSort(plan.NewLimit(chain, 5), plan.SortKey{Col: 0}),
			"sort(limit(fused(pump)))"},
		"join(scan, chain)":        {join(chain), "join(fused(pump), pump)"},
		"join(scan, limit(chain))": {join(plan.NewLimit(chain, 5)), "join(fused(pump), limit(fused(pump)))"},
		"filter(join)": {plan.NewFilter(join(chain), expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 0}, R: expr.Const{V: expr.Int(50)}}),
			"fused(join(fused(pump), pump))"},
		"agg(join)":  {plan.NewAgg(join(chain), nil, count), "agg(join(fused(pump), pump))"},
		"sort(agg)":  {plan.NewSort(plan.NewAgg(chain, []int{0}, count), plan.SortKey{Col: 1}), "sort(agg(pump))"},
		"sort(join)": {plan.NewSort(join(chain), plan.SortKey{Col: 1}), "sort(join(fused(pump), pump))"},
		"join(join)": {plan.NewHashJoin(
			plan.NewProject(plan.NewScan(build, nil), []expr.Expr{build.Schema.Col("k")}, []string{"outer"}, []expr.Kind{expr.KindInt}),
			join(chain), 0, 0, nil), "join(fused(pump), join(fused(pump), pump))"},
	}
}

// Which operator a plan node becomes depends on the plan's shape alone: the
// worker count only sizes the pumps.
func TestLoweringIsAFunctionOfPlanShapeAlone(t *testing.T) {
	for name, l := range lowerings(t) {
		for _, w := range []int{0, 1, 2, 4} {
			if got := opTree(CompileParallel(l.plan, w)); got != l.tree {
				t.Errorf("%s at workers=%d lowered to %s, want %s", name, w, got, l.tree)
			}
		}
	}
	for name, p := range parallelPlans(t) {
		want := opTree(CompileParallel(p, 4))
		for _, w := range []int{0, 1, 2} {
			if got := opTree(CompileParallel(p, w)); got != want {
				t.Errorf("%s at workers=%d lowered to %s, at workers=4 to %s", name, w, got, want)
			}
		}
	}
}

// One producer runs on the caller's goroutine: at one worker, and on a
// heap of at most one run at any worker count, a statement starts no
// goroutine.
func TestInlinePumpStartsNoGoroutine(t *testing.T) {
	// More pages than a pool's claim window, so pooled producers cannot
	// finish — and exit — before the coordinator takes a page.
	big, onePage := pagedTable(t, pumpFixturePages(4), 12), numbersTable(t, "p1", 50)
	oneRun := pagedTable(t, storage.DefaultMorselRunLength, 12)
	if onePage.Heap.NumPages() != 1 {
		t.Fatalf("the one-page table spans %d pages", onePage.Heap.NumPages())
	}
	shapes := func(tb *catalog.Table) map[string]plan.Node {
		scan := plan.NewScan(tb, expr.Cmp{Op: expr.GE, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(1)}})
		return map[string]plan.Node{
			"scan": scan,
			"agg":  plan.NewAgg(scan, nil, []plan.AggSpec{{Func: plan.Count, Name: "c"}}),
			"sort": plan.NewSort(scan, plan.SortKey{Col: 0, Desc: true}),
			"join": plan.NewHashJoin(plan.NewScan(onePage, nil), scan, 0, 0, nil),
		}
	}
	before := runtime.NumGoroutine()
	// run reports the most goroutines seen between Open and Close.
	run := func(p plan.Node, workers int) (during int) {
		ctx, _ := testCtx()
		op := CompileParallel(p, workers)
		if err := op.Open(ctx); err != nil {
			t.Fatal(err)
		}
		during = runtime.NumGoroutine()
		if b, err := op.Next(ctx); err != nil || b == nil {
			t.Fatalf("first batch: %v, %v", b, err)
		}
		during = max(during, runtime.NumGoroutine())
		if err := op.Close(ctx); err != nil {
			t.Fatal(err)
		}
		// Close has waited for every producer's wg.Done; give the ones past
		// it a moment to finish exiting.
		after := runtime.NumGoroutine()
		for i := 0; i < 10000 && after != before; i++ {
			time.Sleep(100 * time.Microsecond)
			after = runtime.NumGoroutine()
		}
		if after != before {
			t.Fatalf("workers=%d: %d goroutines after Close, %d before Open", workers, after, before)
		}
		return during
	}
	for name, p := range shapes(big) {
		for _, w := range []int{0, 1} {
			if during := run(p, w); during != before {
				t.Errorf("%s at workers=%d: %d goroutines while open, %d before", name, w, during, before)
			}
		}
		if during := run(p, 4); during == before {
			t.Errorf("%s at workers=4 ran no pool: the inline checks would pin nothing", name)
		}
	}
	for name, p := range shapes(onePage) {
		if during := run(p, 4); during != before {
			t.Errorf("%s over one page at workers=4: %d goroutines while open, %d before", name, during, before)
		}
	}
	for name, p := range shapes(oneRun) {
		if during := run(p, 4); during != before {
			t.Errorf("%s over one run at workers=4: %d goroutines while open, %d before", name, during, before)
		}
	}
}

// A pooled pump's producers run ahead of its coordinator by at most 32
// pages of records each: a producer claims a run only with a ticket, and
// the coordinator refunds one only as it moves past a run. A coordinator
// that has taken nothing finds exactly that many pages produced, and
// moving one run on lets exactly one more run through. A heap of one run
// opens no pool, one a page longer does.
func TestPooledPumpHoldsAtMostPagesInFlightPerProducer(t *testing.T) {
	const (
		workers = 4
		run     = storage.DefaultMorselRunLength
		bound   = 32 // pages of records in flight per producer
	)
	var produced atomic.Int64
	pump := func(pages int) *morselPump {
		return &morselPump{frag: heapFragment(plan.NewScan(pagedTable(t, pages, 12), nil), nil), workers: workers,
			sink: func() func(*morselResult, storage.MorselRun) {
				return func(*morselResult, storage.MorselRun) { produced.Add(1) }
			}}
	}
	ctx, _ := testCtx()
	for _, c := range []struct {
		pages  int
		inline bool
	}{{1, true}, {run, true}, {run + 1, false}} {
		p := pump(c.pages)
		p.open(ctx)
		inline := p.inline != nil
		p.close(ctx)
		if inline != c.inline {
			t.Errorf("a %d-page heap at workers=%d ran inline: %v, want %v", c.pages, workers, inline, c.inline)
		}
	}

	produced.Store(0)
	p := pump(pumpFixturePages(workers))
	p.open(ctx)
	defer p.close(ctx)
	// settle waits for the producers to have run want pages, then long
	// enough for a page past the bound to show.
	settle := func(want int64) {
		for deadline := time.Now().Add(10 * time.Second); produced.Load() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if got := produced.Load(); got != want {
			t.Fatalf("producers ran %d pages ahead of the coordinator, want %d", got, want)
		}
	}
	settle(workers * bound)
	// The first page of the second run: the first run's ticket comes back.
	for i := 0; i <= run; i++ {
		if p.take() == nil {
			t.Fatalf("the lap ended after %d pages", i)
		}
	}
	settle(workers*bound + run)
}

// A pooled pump hands a page record, with the selection and projection
// vectors its batch lives in, back to the producers at the next Next. Every
// batch must therefore read, up to that call, exactly what the inline
// pump's batch reads — over more pages than the claim window, so records
// are refilled while later ones are read. Under -race this also checks that
// the hand-back orders the coordinator's reads before a producer's writes.
func TestPooledMorselBatchesHoldUntilNextCall(t *testing.T) {
	// v = k mod 13 against 12-row pages: the survivors per page vary, so
	// recycled buffers meet batches both smaller and larger than their last.
	tb := pagedTable(t, 600, 13)
	k, v := tb.Schema.Col("k"), tb.Schema.Col("v")
	p := plan.NewFilter(
		plan.NewProject(
			plan.NewScan(tb, expr.Cmp{Op: expr.GE, L: v, R: expr.Const{V: expr.Int(3)}}),
			[]expr.Expr{expr.Arith{Op: expr.Mul, L: k, R: v}, v, k},
			[]string{"kv", "v", "k"}, []expr.Kind{expr.KindFloat, expr.KindInt, expr.KindInt}),
		expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 1}, R: expr.Const{V: expr.Int(10)}})
	batches := func(workers int, each func(i int, b *expr.Batch)) int {
		ctx, _ := testCtx()
		op := CompileParallel(p, workers)
		if got := opTree(op); got != "fused(pump)" {
			t.Fatalf("compiled to %s, want fused(pump)", got)
		}
		n := 0
		if err := Drain(ctx, op, func(b *expr.Batch) error {
			each(n, b)
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	var want [][]expr.Row
	batches(1, func(_ int, b *expr.Batch) { want = append(want, b.Rows()) })
	got := batches(4, func(i int, b *expr.Batch) {
		if i >= len(want) {
			t.Fatalf("batch %d: the inline pump returned %d", i, len(want))
		}
		rows := b.Rows()
		if len(rows) != len(want[i]) {
			t.Fatalf("batch %d: %d rows, want %d", i, len(rows), len(want[i]))
		}
		for r := range rows {
			for c := range rows[r] {
				if rows[r][c] != want[i][r][c] {
					t.Fatalf("batch %d row %d col %d: %v, want %v", i, r, c, rows[r][c], want[i][r][c])
				}
			}
		}
	})
	if got != len(want) || got <= 4*storage.DefaultMorselRunLength {
		t.Fatalf("%d batches at workers=4, %d inline: want equal and past the claim window", got, len(want))
	}
}

func TestMorselExecSchemaTracksFragment(t *testing.T) {
	tb := numbersTable(t, "t", 50)
	k := tb.Schema.Col("k")
	proj := plan.NewProject(plan.NewScan(tb, nil),
		[]expr.Expr{expr.Arith{Op: expr.Mul, L: k, R: k}},
		[]string{"k2"}, []expr.Kind{expr.KindFloat})
	op := CompileParallel(proj, 2)
	if op.Schema().NumCols() != 1 || op.Schema().Columns()[0].Name != "k2" {
		t.Fatalf("morsel schema = %v", op.Schema().Columns())
	}
}

func TestMorselExecEarlyCloseStopsWorkers(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 20000)
	op := CompileParallel(plan.NewScan(tb, nil), 4)
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := op.Next(ctx)
	if err != nil || b == nil || b.Len() == 0 {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	// Abandon the stream mid-scan: Close must stop the worker pool
	// without deadlocking, and be idempotent.
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestMorselExecEmptyHeap(t *testing.T) {
	ctx, _ := testCtx()
	tb := numbersTable(t, "t", 0)
	op := CompileParallel(plan.NewScan(tb, nil), 4)
	rows := collect(t, op, ctx)
	if len(rows) != 0 {
		t.Fatalf("empty heap produced %d rows", len(rows))
	}
}
