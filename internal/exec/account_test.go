package exec

import (
	"runtime/debug"
	"testing"

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
// goroutines do).
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
	// A collection between the two runs would drop pooled leases.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
		run := func() map[any]string {
			ctx, _ := testCtx()
			if err := Drain(ctx, CompileParallel(c.p, c.workers), nil); err != nil {
				t.Fatal(err)
			}
			leased := leasesOf(&ctx.Mem)
			ctx.Mem.Release()
			return leased
		}
		first, second := run(), run()
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
	for _, b := range a.outs {
		leased[b] = "batch"
	}
	for _, b := range a.builds {
		leased[b] = "build"
	}
	for _, t := range a.tables {
		if t.deferSums {
			leased[t] = "partial"
		} else {
			leased[t] = "table"
		}
	}
	for _, r := range a.runs {
		leased[r] = "run"
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
