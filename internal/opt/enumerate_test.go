package opt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// countOver returns a COUNT(*) over n tables t0..tn-1 of (k, r) int rows
// under the conjuncts preds builds with col(table, column): table i holds
// size(i) rows whose k cycles through keys(i) values and r through 0..6.
func countOver(t *testing.T, n int, size, keys func(i int) int, preds func(col func(table, c int) expr.Expr) []expr.Expr) *plan.Logical {
	t.Helper()
	tables := make([]*catalog.Table, n)
	for i := range tables {
		tables[i] = catalog.NewTable(fmt.Sprintf("t%d", i), catalog.NewSchema(
			catalog.Column{Name: fmt.Sprintf("k%d", i), Kind: expr.KindInt},
			catalog.Column{Name: fmt.Sprintf("r%d", i), Kind: expr.KindInt}))
		for j := range size(i) {
			tables[i].Insert(expr.Row{expr.Int(int64(j % keys(i))), expr.Int(int64(j % 7))})
		}
	}
	lg, err := plan.NewLogical(tables)
	if err != nil {
		t.Fatal(err)
	}
	col := func(table, c int) expr.Expr {
		g := lg.ColOffset(table) + c
		return expr.Col{Idx: g, Name: lg.ColName(g)}
	}
	for _, p := range preds(col) {
		if err := lg.AddPredicate(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.SetAgg(nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}}); err != nil {
		t.Fatal(err)
	}
	return lg
}

func eq(l, r expr.Expr) expr.Expr { return expr.Cmp{Op: expr.EQ, L: l, R: r} }

func atMost(l expr.Expr, v int) expr.Expr {
	return expr.Cmp{Op: expr.LE, L: l, R: expr.Const{V: expr.Int(int64(v))}}
}

// wideChain returns a COUNT(*) over n tables of sizes that vary along the
// chain, each joined to the next on k and filtered on its own r: a chain
// whose connected subsets the join enumeration walks, at any table count.
func wideChain(t *testing.T, n int) *plan.Logical {
	size := func(i int) int { return 5 + 7*i%31 }
	return countOver(t, n, size, size, func(col func(table, c int) expr.Expr) []expr.Expr {
		var preds []expr.Expr
		for i := 0; i < n; i++ {
			preds = append(preds, atMost(col(i, 1), i%5))
			if i > 0 {
				preds = append(preds, eq(col(i-1, 0), col(i, 0)))
			}
		}
		return preds
	})
}

// randomJoinGraph returns a COUNT(*) over n tables of random sizes and key
// ranges, joined along a random spanning tree plus up to two extra equi
// edges, some tables filtered: join graphs whose table numbering does not
// follow their edges.
func randomJoinGraph(t *testing.T, r *rand.Rand, n int) *plan.Logical {
	sizes, keys := make([]int, n), make([]int, n)
	for i := range sizes {
		sizes[i], keys[i] = 1+r.Intn(200), 1+r.Intn(50)
	}
	return countOver(t, n, func(i int) int { return sizes[i] }, func(i int) int { return keys[i] },
		func(col func(table, c int) expr.Expr) []expr.Expr {
			var preds []expr.Expr
			perm := r.Perm(n)
			for i := 1; i < n; i++ {
				preds = append(preds, eq(col(perm[r.Intn(i)], 0), col(perm[i], 0)))
			}
			for range r.Intn(3) {
				if a, b := r.Intn(n), r.Intn(n); a != b {
					preds = append(preds, eq(col(a, 0), col(b, 0)))
				}
			}
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					preds = append(preds, atMost(col(i, 1), r.Intn(7)))
				}
			}
			return preds
		})
}

// TestEnumerationMatchesSizeBySizeSweep holds the join enumeration to its
// reference, SweepShapes: growing subsets in ascending numeric order from
// packed candidates must hand every frontier the candidates a size-by-size
// sweep of sorted subsets does, in the same order, so both keep the same
// survivors and yield the same shapes in the same order, whichever table
// is pinned last. Random join graphs number their tables against their
// edges; growing subsets in the order they were first reached instead
// fails here.
func TestEnumerationMatchesSizeBySizeSweep(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	env, _ := e.OptimizerEnv()
	lgs := generatedLogicals(t, e.Catalog())
	q5, _, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	lgs["Q5"] = q5
	r := rand.New(rand.NewSource(7))
	for i := range 150 {
		lgs[fmt.Sprintf("random graph %d", i)] = randomJoinGraph(t, r, 3+r.Intn(6))
	}

	for name, lg := range lgs {
		for pinned := -1; pinned < len(lg.Tables); pinned++ {
			if got, want := opt.Shapes(lg, env, pinned), opt.SweepShapes(lg, env, pinned); !slices.Equal(got, want) {
				t.Errorf("%s, pinned %d:\nenumeration %v\nsweep       %v", name, pinned, got, want)
			}
		}
	}
}

// TestOptimizeLongChains plans chains of 13 and 24 tables, far past Q5's
// six: the enumeration yields shapes, the choice lowers, and EXPLAIN
// renders its join order over every table.
func TestOptimizeLongChains(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	env, _ := e.OptimizerEnv()
	for _, n := range []int{13, 24} {
		lg := wideChain(t, n)
		if len(opt.Shapes(lg, env, n-1)) == 0 {
			t.Errorf("%d tables: the enumeration yielded no shape", n)
		}
		ch, err := opt.Optimize(lg, lg.DefaultChoices(), env, opt.MinimizeJoules())
		if err != nil {
			t.Fatalf("%d tables: %v", n, err)
		}
		if _, err := lg.Lower(ch.Phys); err != nil {
			t.Errorf("%d tables: the choice does not lower: %v", n, err)
		}
		out, err := opt.Explain(lg, lg.DefaultChoices(), env, opt.MinimizeJoules())
		if err != nil {
			t.Fatalf("%d tables: %v", n, err)
		}
		if got := strings.Count(out, " ⨝ "); got != n-1 {
			t.Errorf("%d tables: EXPLAIN joins %d times:\n%s", n, got, out)
		}
	}
}

// TestConcurrentExplainsRenderAsAlone: the embedded engine may plan from
// several goroutines, and every estimate's scratch comes from one pool, so
// EXPLAINs made at once over different plans must each render as they do
// alone.
func TestConcurrentExplainsRenderAsAlone(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	env, _ := e.OptimizerEnv()
	q5, base, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	chain := wideChain(t, 14)
	bases := map[*plan.Logical]plan.PhysChoices{q5: base, chain: chain.DefaultChoices()}
	want := make(map[*plan.Logical]string)
	for lg, b := range bases {
		if want[lg], err = opt.Explain(lg, b, env, opt.MinimizeJoules()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				for lg, b := range bases {
					if got, err := opt.Explain(lg, b, env, opt.MinimizeJoules()); err != nil || got != want[lg] {
						t.Errorf("concurrent EXPLAIN differs (err %v):\n%s\nalone:\n%s", err, got, want[lg])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
