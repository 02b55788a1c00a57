package plan

import (
	"slices"
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

func logicalFixture(t *testing.T) (*Logical, *catalog.Table, *catalog.Table) {
	t.Helper()
	a := catalog.NewTable("a", catalog.NewSchema(
		catalog.Column{Name: "id", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	b := catalog.NewTable("b", catalog.NewSchema(
		catalog.Column{Name: "aid", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	lg, err := NewLogical([]*catalog.Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return lg, a, b
}

func TestLogicalResolve(t *testing.T) {
	lg, _, _ := logicalFixture(t)

	if g, err := lg.Resolve("", "id"); err != nil || g != 0 {
		t.Fatalf("id -> %d, %v", g, err)
	}
	if g, err := lg.Resolve("", "aid"); err != nil || g != 2 {
		t.Fatalf("aid -> %d, %v", g, err)
	}
	if g, err := lg.Resolve("b", "v"); err != nil || g != 3 {
		t.Fatalf("b.v -> %d, %v", g, err)
	}
	if _, err := lg.Resolve("", "v"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("unqualified duplicate should be ambiguous, got %v", err)
	}
	if _, err := lg.Resolve("", "nope"); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := lg.Resolve("c", "v"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

// TestLowerThreeCopySelfJoin: a chain join over three copies of one table
// lowers under every connected join order and build side. Building the new copy against the
// two already joined concatenates [k] with [k, k_2], whose repeat must not
// collide with the k_2 already taken.
func TestLowerThreeCopySelfJoin(t *testing.T) {
	x := catalog.NewTable("x", catalog.NewSchema(catalog.Column{Name: "k", Kind: expr.KindInt}))
	lg, err := NewLogical([]*catalog.Table{x, x, x})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := lg.AddPredicate(expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: e[0], Name: "k"}, R: expr.Col{Idx: e[1], Name: "k"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {1, 2, 0}, {2, 1, 0}} {
		for sides := 0; sides < 4; sides++ {
			ch := PhysChoices{JoinOrder: order, BuildLeft: []bool{sides&1 != 0, sides&2 != 0}, Pushdown: PushdownAll}
			root, err := lg.Lower(ch)
			if err != nil {
				t.Fatalf("order %v, sides %b: %v", order, sides, err)
			}
			if n := root.Schema().NumCols(); n != 3 {
				t.Fatalf("order %v, sides %b: %d output columns, want 3", order, sides, n)
			}
		}
	}
}

// TestStarNamesRepeatsByOneRule: a star query over t1(a, a_2) ⋈ t2(a)
// names its output a, a_2, a_3 — t2's a skips the a_2 that t1 already
// holds — in its logical output schema and under every join order and
// build side.
func TestStarNamesRepeatsByOneRule(t *testing.T) {
	t1 := catalog.NewTable("t1", catalog.NewSchema(
		catalog.Column{Name: "a", Kind: expr.KindInt},
		catalog.Column{Name: "a_2", Kind: expr.KindInt},
	))
	t2 := catalog.NewTable("t2", catalog.NewSchema(catalog.Column{Name: "a", Kind: expr.KindInt}))
	lg, err := NewLogical([]*catalog.Table{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.AddPredicate(expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0, Name: "a"}, R: expr.Col{Idx: 2, Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "a_2", "a_3"}
	names := func(s *catalog.Schema) []string {
		var out []string
		for _, c := range s.Columns() {
			out = append(out, c.Name)
		}
		return out
	}
	if got := names(lg.OutputSchema()); !slices.Equal(got, want) {
		t.Fatalf("OutputSchema names %v, want %v", got, want)
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		for _, buildLeft := range []bool{false, true} {
			root, err := lg.Lower(PhysChoices{JoinOrder: order, BuildLeft: []bool{buildLeft}, Pushdown: PushdownAll})
			if err != nil {
				t.Fatalf("order %v, build left %v: %v", order, buildLeft, err)
			}
			if got := names(root.Schema()); !slices.Equal(got, want) {
				t.Fatalf("order %v, build left %v: output names %v, want %v", order, buildLeft, got, want)
			}
		}
	}
}

func TestLogicalLowerShapes(t *testing.T) {
	lg, _, _ := logicalFixture(t)
	mustPred := func(e expr.Expr) {
		if err := lg.AddPredicate(e); err != nil {
			t.Fatal(err)
		}
	}
	// a.id = b.aid (join edge), a.v > 1 (single-table), a.v < b.v (residual).
	mustPred(expr.Cmp{Op: expr.EQ, L: expr.Col{Idx: 0, Name: "id"}, R: expr.Col{Idx: 2, Name: "aid"}})
	mustPred(expr.Cmp{Op: expr.GT, L: expr.Col{Idx: 1, Name: "v"}, R: expr.Const{V: expr.Int(1)}})
	mustPred(expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 1, Name: "v"}, R: expr.Col{Idx: 3, Name: "v"}})

	if !lg.Conjuncts[0].EquiJoin || lg.Conjuncts[0].Tables != TableSet(0b11) {
		t.Fatalf("join conjunct analysis = %+v", lg.Conjuncts[0])
	}
	if lg.Conjuncts[1].EquiJoin || lg.Conjuncts[1].Tables != TableSet(0b01) {
		t.Fatalf("filter conjunct analysis = %+v", lg.Conjuncts[1])
	}

	root, err := lg.Lower(lg.DefaultChoices())
	if err != nil {
		t.Fatal(err)
	}
	join, ok := root.(*HashJoin)
	if !ok {
		t.Fatalf("root = %T, want *HashJoin", root)
	}
	if join.BuildKey != 0 || join.ProbeKey != 0 || join.Residual == nil {
		t.Fatalf("join keys/residual = %d/%d/%v", join.BuildKey, join.ProbeKey, join.Residual)
	}
	if scan, ok := join.Build.(*Scan); !ok || scan.Filter == nil {
		t.Fatalf("build leaf should be the filtered scan of a, got %s", join.Build.Describe())
	}

	// Reversed order keeps the output schema but flips the physical shape
	// and restores global column order with a projection.
	rev, err := lg.Lower(PhysChoices{JoinOrder: []int{1, 0}, BuildLeft: []bool{true}, Pushdown: PushdownAll})
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := rev.(*Project)
	if !ok {
		t.Fatalf("reversed root = %T, want reorder *Project", rev)
	}
	want := lg.OutputSchema()
	got := proj.Schema()
	if got.NumCols() != want.NumCols() {
		t.Fatalf("reordered width %d vs %d", got.NumCols(), want.NumCols())
	}
	for i := range want.Columns() {
		if got.Columns()[i].Name != want.Columns()[i].Name {
			t.Fatalf("col %d = %q, want %q", i, got.Columns()[i].Name, want.Columns()[i].Name)
		}
	}
}

func TestLogicalLowerNoJoinEdge(t *testing.T) {
	lg, _, _ := logicalFixture(t)
	if _, err := lg.Lower(lg.DefaultChoices()); err == nil {
		t.Fatal("cross join without an equality edge should fail to lower")
	}
}

func TestLogicalOutputSchemaQualifiesDuplicates(t *testing.T) {
	lg, _, _ := logicalFixture(t)
	out := lg.OutputSchema()
	names := make([]string, out.NumCols())
	for i, c := range out.Columns() {
		names[i] = c.Name
	}
	if strings.Join(names, ",") != "id,v,aid,v_2" {
		t.Fatalf("star schema = %v", names)
	}
}
