package exec

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// A warm statement leases nothing new: once a run of a plan has released
// its leases, the next run of the same plan leases those again. A second
// Q5 at workers=4 makes no join build side or table, group table, sorted
// run or output batch, and a second grouped aggregation over lineitem no
// run partial (inline, so that it leases one partial whatever the
// goroutines do). Neither allocates a list to hold its leases in: the
// account's lists come back with the same arrays under them.
func TestWarmStatementLeasesNothingNew(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.005, 42).Load(cat, tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	li := cat.MustTable(tpch.Lineitem)
	grouped := plan.NewAgg(plan.NewScan(li, nil), []int{li.Schema.MustIndex("l_quantity")}, []plan.AggSpec{
		{Func: plan.Sum, Arg: li.Schema.Col("l_extendedprice"), Name: "sum_price"},
		{Func: plan.Avg, Arg: li.Schema.Col("l_discount"), Name: "avg_disc"},
		{Func: plan.Count, Name: "n"},
	})
	// A collection between the two runs would drop pooled leases, and a
	// lease put back on one P's shelf is out of reach of a get on another
	// until it leaves the P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name    string
		p       plan.Node
		workers int
		want    []string // lease kinds the plan must take
	}{
		{"Q5", tpch.Q5(cat, "ASIA", 1994), 4, []string{"build", "table", "run", "batch"}},
		{"grouped aggregation", grouped, 1, []string{"table", "partial", "batch"}},
	} {
		emptyLeasePools()
		// lists names the arrays under the account's lists.
		type lists struct {
			l          *leases
			held, free unsafe.Pointer
		}
		run := func() (map[any]string, lists) {
			ctx, _ := testCtx()
			if err := Drain(ctx, CompileParallel(c.p, c.workers), nil); err != nil {
				t.Fatal(err)
			}
			kinds, l := leasesOf(&ctx.Mem), ctx.Mem.l
			arrays := lists{l, unsafe.Pointer(unsafe.SliceData(l.held)), unsafe.Pointer(unsafe.SliceData(l.free))}
			ctx.Mem.Release()
			return kinds, arrays
		}
		first, firstLists := run()
		second, secondLists := run()
		if secondLists != firstLists {
			t.Errorf("%s: the second run allocated a list", c.name)
		}
		kinds := map[string]bool{}
		for _, kind := range first {
			kinds[kind] = true
		}
		for _, kind := range c.want {
			if !kinds[kind] {
				t.Fatalf("%s leased no %s; the test would pin none", c.name, kind)
			}
		}
		for x, kind := range second {
			if _, ok := first[x]; !ok {
				t.Errorf("%s: the second run leased a new %s", c.name, kind)
			}
		}
	}
}

// newAggTable and newSortedRun make an operator's state outside any
// account, as a statement leases it.
func newAggTable(groupBy []int, aggs []plan.AggSpec, deferSums bool) *aggTable {
	t := new(aggTable)
	t.shape(groupBy, aggs, deferSums)
	return t
}

func newSortedRun(keys []plan.SortKey, limit, width int) *sortedRun {
	r := new(sortedRun)
	r.shape(keys, limit, width)
	return r
}

// leasesOf names each of the account's leases by its kind.
func leasesOf(a *Account) map[any]string {
	leased := map[any]string{}
	for _, h := range a.l.held {
		switch x := h.x.(type) {
		case *expr.Batch:
			leased[x] = "batch"
		case *joinBuild:
			leased[x] = "build"
		case *aggTable:
			leased[x] = "table"
			if x.deferSums {
				leased[x] = "partial"
			}
		case *sortedRun:
			leased[x] = "run"
		}
	}
	return leased
}

// A table leased for one grouping and aggregate list and re-formed for
// another aggregates as a new one does: a COUNT(*) where the table last
// held a COUNT of a NULL-bearing argument counts every row.
func TestReshapedTableAggregatesAsNew(t *testing.T) {
	b := expr.NewBatch(2)
	for r := 0; r < 30; r++ {
		y := expr.Int(int64(r))
		if r%3 == 0 {
			y = expr.Null()
		}
		b.AppendRow(expr.Row{expr.Int(int64(r % 4)), y})
	}
	y := expr.Col{Idx: 1, Name: "y"}
	shapes := []struct {
		groupBy []int
		aggs    []plan.AggSpec
	}{
		{[]int{0}, []plan.AggSpec{{Func: plan.Count, Arg: y, Name: "n_y"}, {Func: plan.Sum, Arg: y, Name: "s"}}},
		{nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}, {Func: plan.Max, Arg: y, Name: "m"}}},
		{[]int{1}, []plan.AggSpec{{Func: plan.Count, Name: "n"}}},
		{[]int{0, 1}, []plan.AggSpec{{Func: plan.Avg, Arg: y, Name: "a"}, {Func: plan.Count, Arg: y, Name: "n_y"}}},
	}
	reused := new(aggTable)
	var meter expr.Cost
	for round := 0; round < 2; round++ {
		for i, sh := range shapes {
			for _, deferSums := range []bool{false, true} {
				reused.shape(sh.groupBy, sh.aggs, deferSums)
				reused.fold(b, &meter)
				result := reused
				if deferSums {
					// A partial's SUM and AVG show only once merged.
					result = newAggTable(sh.groupBy, sh.aggs, false)
					result.merge(reused)
				}
				want := newAggTable(sh.groupBy, sh.aggs, false)
				want.fold(b, &meter)
				got, exp := expr.NewBatch(len(sh.groupBy)+len(sh.aggs)), expr.NewBatch(len(sh.groupBy)+len(sh.aggs))
				result.emit(got)
				want.emit(exp)
				gotRows, wantRows := got.Rows(), exp.Rows()
				if len(gotRows) != len(wantRows) {
					t.Fatalf("round %d shape %d (partial %v): %d groups, a new table %d", round, i, deferSums, len(gotRows), len(wantRows))
				}
				for r := range wantRows {
					for col := range wantRows[r] {
						if gotRows[r][col] != wantRows[r][col] {
							t.Fatalf("round %d shape %d (partial %v) row %d column %d: %v, a new table %v",
								round, i, deferSums, r, col, gotRows[r][col], wantRows[r][col])
						}
					}
				}
			}
		}
	}
}

// A lease past its role's bound goes to the collector, so one large
// statement cannot pin its buffers for the process's lifetime: for every
// role in maxPooledBytes, a lease holding one byte more than the bound
// never comes back out of its pool, and one holding exactly the bound does.
// A NULL bitmap takes a byte of capacity per row, so each lease is sized to
// the byte.
func TestLeasesPastTheirBoundAreNotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nulls := func(b *expr.Batch, n int) {
		b.SetWidth(1)
		b.Cols[0].Nulls = make([]bool, 0, n)
	}
	cases := []struct {
		name      string
		role      role
		comesBack func(n int) bool
	}{
		{"output batch", roleOut, func(n int) bool { return comesBack(t, &outBatches, n, nulls) }},
		{"answer", roleAnswer, func(n int) bool { return comesBack(t, &answers, n, nulls) }},
		{"join build", roleBuild, func(n int) bool {
			return comesBack(t, &joinBuilds, n, func(b *joinBuild, n int) { nulls(&b.rows, n) })
		}},
		{"group table", roleTable, func(n int) bool {
			return comesBack(t, &aggTables, n, func(tb *aggTable, n int) {
				tb.argVecs = []*expr.ColVec{{Nulls: make([]bool, 0, n)}}
			})
		}},
		{"sorted run", roleRun, func(n int) bool {
			return comesBack(t, &sortedRuns, n, func(r *sortedRun, n int) { nulls(&r.buf, n) })
		}},
		{"page record", roleRecord, func(n int) bool {
			return comesBack(t, &records, n, func(res *morselResult, n int) {
				res.scratch().proj = []*expr.Batch{new(expr.Batch)}
				nulls(res.own.proj[0], n)
			})
		}},
	}
	if len(cases) != len(maxPooledBytes) {
		t.Fatalf("%d cases for %d roles", len(cases), len(maxPooledBytes))
	}
	for _, c := range cases {
		bound := maxPooledBytes[c.role]
		if !c.comesBack(bound) {
			t.Errorf("%s: a lease of %d bytes, the bound, did not come back; the test would pin nothing", c.name, bound)
		}
		if c.comesBack(bound + 1) {
			t.Errorf("%s: a lease of %d bytes, past the %d-byte bound, came back out of its pool", c.name, bound+1, bound)
		}
	}
}

// comesBack puts a lease that fill sizes to n bytes of capacity into p and
// reports whether it comes back out in a hundred gets from its shelf.
func comesBack[T any](t *testing.T, p *leasePool[T], n int, fill func(*T, int)) bool {
	x := new(T)
	fill(x, n)
	if got := p.bytes(x); got != n {
		t.Fatalf("the lease holds %d bytes, want %d", got, n)
	}
	p.put(x)
	for i := 0; i < 100; i++ {
		if p.get(p.shape(x)) == x {
			return true
		}
	}
	return false
}
