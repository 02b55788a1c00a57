package plan

import (
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

func table(name string, cols ...string) *catalog.Table {
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cc[i] = catalog.Column{Name: c, Kind: expr.KindInt}
	}
	return catalog.NewTable(name, catalog.NewSchema(cc...))
}

func TestScanSchemaAndDescribe(t *testing.T) {
	tb := table("t", "a", "b")
	s := NewScan(tb, nil)
	if s.Schema() != tb.Schema {
		t.Fatal("scan schema should be the table schema")
	}
	if got := s.Describe(); got != "Scan(t)" {
		t.Fatalf("Describe = %q", got)
	}
	f := NewScan(tb, expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("a"), R: expr.Const{V: expr.Int(1)}})
	if !strings.Contains(f.Describe(), "filter=") {
		t.Fatalf("filtered Describe = %q", f.Describe())
	}
}

func TestHashJoinSchemaConcat(t *testing.T) {
	l, r := table("l", "lk", "lv"), table("r", "rk", "rv")
	j := NewHashJoin(NewScan(l, nil), NewScan(r, nil), 0, 0, nil)
	if j.Schema().NumCols() != 4 {
		t.Fatalf("join schema cols = %d", j.Schema().NumCols())
	}
	if j.Schema().MustIndex("rk") != 2 {
		t.Fatal("probe columns should follow build columns")
	}
	if len(j.Children()) != 2 {
		t.Fatal("join should have two children")
	}
}

func TestHashJoinBadKeyPanics(t *testing.T) {
	l, r := table("l", "a"), table("r", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range key did not panic")
		}
	}()
	NewHashJoin(NewScan(l, nil), NewScan(r, nil), 5, 0, nil)
}

func TestProjectSchema(t *testing.T) {
	tb := table("t", "a")
	p := NewProject(NewScan(tb, nil),
		[]expr.Expr{tb.Schema.Col("a")}, []string{"x"}, []expr.Kind{expr.KindInt})
	if p.Schema().MustIndex("x") != 0 {
		t.Fatal("project schema wrong")
	}
}

func TestProjectMismatchPanics(t *testing.T) {
	tb := table("t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewProject(NewScan(tb, nil), []expr.Expr{tb.Schema.Col("a")}, []string{"x", "y"}, []expr.Kind{expr.KindInt})
}

func TestAggSchema(t *testing.T) {
	tb := table("t", "g", "x")
	a := NewAgg(NewScan(tb, nil), []int{0}, []AggSpec{
		{Func: Sum, Arg: tb.Schema.Col("x"), Name: "s"},
		{Func: Count, Name: "c"},
	})
	sch := a.Schema()
	if sch.NumCols() != 3 {
		t.Fatalf("agg schema cols = %d", sch.NumCols())
	}
	if sch.Columns()[1].Kind != expr.KindFloat {
		t.Fatal("sum output should be float")
	}
	if sch.Columns()[2].Kind != expr.KindInt {
		t.Fatal("count output should be int")
	}
}

func TestFormatTree(t *testing.T) {
	tb := table("t", "a")
	p := NewSort(NewAgg(NewScan(tb, nil), []int{0},
		[]AggSpec{{Func: Count, Name: "c"}}), SortKey{Col: 1, Desc: true})
	out := Format(p)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("Format produced %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Sort(") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  Agg(") {
		t.Fatalf("child line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    Scan(") {
		t.Fatalf("leaf line = %q", lines[2])
	}
}

func TestDescribeStrings(t *testing.T) {
	tb := table("t", "a", "b")
	cases := []struct {
		node Node
		want string
	}{
		{NewFilter(NewScan(tb, nil), expr.Cmp{Op: expr.GT, L: tb.Schema.Col("a"), R: expr.Const{V: expr.Int(0)}}), "Filter"},
		{NewLimit(NewScan(tb, nil), 3), "Limit(3)"},
		{NewSort(NewScan(tb, nil), SortKey{Col: 0}), "Sort(a asc)"},
	}
	for _, c := range cases {
		if !strings.Contains(c.node.Describe(), c.want) {
			t.Errorf("Describe() = %q, want contains %q", c.node.Describe(), c.want)
		}
	}
}

func TestAggFuncString(t *testing.T) {
	if Sum.String() != "sum" || Count.String() != "count" || Avg.String() != "avg" {
		t.Fatal("AggFunc names wrong")
	}
}

// TestOriginOfEveryNodeType: the origin Lower records on a root reads back
// whichever node type the root is, and a node nobody stamped has none.
func TestOriginOfEveryNodeType(t *testing.T) {
	tb := table("t", "a", "b")
	scan := NewScan(tb, nil)
	nodes := []Node{
		NewScan(tb, nil),
		NewFilter(scan, expr.Col{Idx: 0}),
		NewHashJoin(scan, NewScan(tb, nil), 0, 0, nil),
		NewProject(scan, []expr.Expr{expr.Col{Idx: 0}}, []string{"a"}, []expr.Kind{expr.KindInt}),
		NewAgg(scan, []int{0}, nil),
		NewSort(scan, SortKey{Col: 0}),
		NewLimit(scan, 1),
	}
	o := &Origin{}
	for _, n := range nodes {
		if OriginOf(n) != nil {
			t.Fatalf("%s: unstamped node has an origin", n.Describe())
		}
		n.stamp().origin = o
		if OriginOf(n) != o {
			t.Fatalf("%s: stamped origin does not read back", n.Describe())
		}
	}
}
