package exec

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// The blocking operators allocate per page, per group and per kept row —
// never per input row: buffers grow by doubling, scratch is reused from
// batch to batch, and what crosses from a producer to the coordinator comes
// back to be filled again. The budgets are allocations per 1000 input rows
// on pages of ~300 rows, for a whole compile-and-drain. An inline pump
// refills one page record and hands one probe scratch back and forth, so
// what it allocates is per run of eight pages: a sorted run's buffers
// growing from empty, a partial table learning its run's group keys. A pool
// adds a record and a selection per page in flight. An operator that
// allocated per row would need a thousand.
func TestBlockingOperatorsAllocatePerPageNotPerRow(t *testing.T) {
	const (
		rows         = 20000
		inlineBudget = 60.0  // per 1000 input rows at workers=1 (measured 4 probe, 25 sort, 36 agg; 42 under -race)
		pooledBudget = 120.0 // per 1000 input rows at workers=4 (measured 23 probe, 32 sort, 88 agg)
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
