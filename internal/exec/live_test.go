package exec

import (
	"slices"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// topJoin returns the topmost hash join in the operator tree under op.
func topJoin(t *testing.T, op Operator) *hashJoinOp {
	t.Helper()
	switch o := unwrapSpan(op).(type) {
	case *hashJoinOp:
		return o
	case *aggOp:
		return topJoin(t, o.input)
	case *sortOp:
		return topJoin(t, o.input)
	case *fusedOp:
		return topJoin(t, o.input)
	case *limitOp:
		return topJoin(t, o.input)
	}
	t.Fatalf("no hash join under %s", opTree(op))
	return nil
}

// buildPayload opens the topmost join under op and returns the names of the
// build columns that hold values after Open, and the build row count.
func buildPayload(t *testing.T, op Operator) ([]string, int) {
	t.Helper()
	j := topJoin(t, op)
	ctx, _ := testCtx()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer j.Close(ctx)
	var names []string
	for c, col := range j.build.Schema().Columns() {
		switch n := j.rows.Cols[c].Len(); n {
		case 0:
		case j.rows.N:
			names = append(names, col.Name)
		default:
			t.Fatalf("build column %s holds %d values for %d rows", col.Name, n, j.rows.N)
		}
	}
	return names, j.rows.N
}

// A join copies only the build columns that its key, its residual or an
// operator above it reads.
func TestJoinBuildHoldsOnlyLiveColumns(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.005, 42).Load(cat)
	orders, lineitem := cat.MustTable(tpch.Orders), cat.MustTable(tpch.Lineitem)

	// COUNT(*) over orders ⋈ lineitem reads the build key alone.
	lg, err := plan.NewLogical([]*catalog.Table{orders, lineitem})
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) expr.Col {
		g, err := lg.Resolve("", name)
		if err != nil {
			t.Fatal(err)
		}
		return expr.Col{Idx: g, Name: name}
	}
	if err := lg.AddPredicate(expr.Cmp{Op: expr.EQ, L: col("l_orderkey"), R: col("o_orderkey")}); err != nil {
		t.Fatal(err)
	}
	if err := lg.SetAgg(nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}}); err != nil {
		t.Fatal(err)
	}
	count, err := lg.Lower(lg.DefaultChoices())
	if err != nil {
		t.Fatal(err)
	}
	if got, rows := buildPayload(t, CompileParallel(count, 1)); !slices.Equal(got, []string{"o_orderkey"}) || rows == 0 {
		t.Errorf("COUNT(*) over orders ⋈ lineitem: build holds %v over %d rows, want [o_orderkey] over every order", got, rows)
	}

	// Q5 as served — FROM order, each join building on the one before —
	// reads five of the 40 columns its supplier join builds on: the group
	// key, the revenue's two arguments, the join key and the residual's
	// build column.
	q5 := plan.OriginOf(tpch.Q5(cat, "ASIA", 1994)).Logical
	served, err := q5.Lower(q5.DefaultChoices())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n_name", "c_nationkey", "l_suppkey", "l_extendedprice", "l_discount"}
	if got, rows := buildPayload(t, CompileParallel(served, 2)); !slices.Equal(got, want) || rows == 0 {
		t.Errorf("Q5's supplier join: build holds %v over %d rows, want %v", got, rows, want)
	}

	// A join at the root returns every column, and builds on all of them.
	root := plan.NewHashJoin(plan.NewScan(orders, nil), plan.NewScan(lineitem, nil),
		orders.Schema.MustIndex("o_orderkey"), lineitem.Schema.MustIndex("l_orderkey"), nil)
	op := CompileParallel(root, 2)
	if got, _ := buildPayload(t, op); len(got) != orders.Schema.NumCols() {
		t.Errorf("root join builds on %v, want every orders column", got)
	}
	ctx, _ := testCtx()
	rows := 0
	if err := Drain(ctx, op, func(b *expr.Batch) error {
		for c := range b.Cols {
			if b.Cols[c].Len() != b.N {
				t.Fatalf("root join output column %d holds %d values for %d rows", c, b.Cols[c].Len(), b.N)
			}
		}
		rows += b.Len()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != int(lineitem.Heap.NumRows()) {
		t.Errorf("root join returned %d rows, want one per lineitem (%d)", rows, lineitem.Heap.NumRows())
	}
}
