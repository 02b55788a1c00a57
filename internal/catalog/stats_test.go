package catalog

import (
	"testing"

	"ecodb/internal/expr"
)

func statsTable() *Table {
	t := NewTable("t", NewSchema(
		Column{Name: "k", Kind: expr.KindInt},
		Column{Name: "grp", Kind: expr.KindString},
		Column{Name: "x", Kind: expr.KindFloat},
	))
	for i := 0; i < 1000; i++ {
		grp := expr.String([]string{"a", "b", "c", "d"}[i%4])
		x := expr.Float(float64(i % 10))
		if i%100 == 0 {
			x = expr.Null()
		}
		t.Insert(expr.Row{expr.Int(int64(i)), grp, x})
	}
	return t
}

func TestTableStatsFromZones(t *testing.T) {
	tab := statsTable()
	st := tab.Stats()

	if st.Rows != 1000 || st.Pages != tab.Heap.NumPages() || st.Bytes != tab.Heap.Bytes() {
		t.Fatalf("physical stats = %+v", st)
	}
	k := st.Col(0)
	if k.NDV != 1000 || k.Kind != expr.KindInt || k.Lo != 0 || k.Hi != 999 || k.HasNulls {
		t.Fatalf("k stats = %+v", k)
	}
	grp := st.Col(1)
	if grp.NDV != 4 || grp.Kind != expr.KindString || grp.SLo != "a" || grp.SHi != "d" {
		t.Fatalf("grp stats = %+v", grp)
	}
	x := st.Col(2)
	if x.NDV != 10 || !x.HasNulls || x.Kind != expr.KindFloat || x.Lo != 0 || x.Hi != 9 {
		t.Fatalf("x stats = %+v", x)
	}
}

func TestTableStatsCacheInvalidation(t *testing.T) {
	tab := statsTable()
	st := tab.Stats()
	if got := tab.Stats(); got != st {
		t.Fatal("stats not cached across calls on an unchanged heap")
	}
	tab.Insert(expr.Row{expr.Int(5000), expr.String("e"), expr.Float(11)})
	st2 := tab.Stats()
	if st2 == st {
		t.Fatal("stats cache survived an append")
	}
	if st2.Rows != 1001 || st2.Col(1).NDV != 5 || st2.Col(2).Hi != 11 {
		t.Fatalf("refreshed stats = %+v", st2)
	}
}

func TestTableStatsAllNullColumn(t *testing.T) {
	tab := NewTable("n", NewSchema(Column{Name: "v", Kind: expr.KindInt}))
	for i := 0; i < 3; i++ {
		tab.Insert(expr.Row{expr.Null()})
	}
	st := tab.Stats()
	v := st.Col(0)
	if v.NDV != 0 || !v.HasNulls || v.Kind != expr.KindNull {
		t.Fatalf("all-NULL column stats = %+v", v)
	}
}
