package catalog

import (
	"slices"
	"strings"
	"testing"

	"ecodb/internal/expr"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: expr.KindInt},
		Column{Name: "name", Kind: expr.KindString},
	)
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if s.NumCols() != 2 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	if i, ok := s.Index("name"); !ok || i != 1 {
		t.Fatalf("Index(name) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Fatal("Index(missing) should be absent")
	}
	if s.MustIndex("id") != 0 {
		t.Fatal("MustIndex(id) != 0")
	}
	col := s.Col("name")
	if col.Idx != 1 || col.Name != "name" {
		t.Fatalf("Col = %+v", col)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	NewSchema(Column{Name: "a"}, Column{Name: "a"})
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex(missing) did not panic")
		}
	}()
	testSchema().MustIndex("missing")
}

func TestConcatQualifiesDuplicates(t *testing.T) {
	a := NewSchema(Column{Name: "k", Kind: expr.KindInt}, Column{Name: "x", Kind: expr.KindInt})
	b := NewSchema(Column{Name: "k", Kind: expr.KindInt}, Column{Name: "y", Kind: expr.KindInt})
	c := Concat(a, b)
	if c.NumCols() != 4 {
		t.Fatalf("NumCols = %d", c.NumCols())
	}
	// First k keeps its name; the duplicate is qualified.
	if c.MustIndex("k") != 0 {
		t.Fatal("first k should stay at 0")
	}
	if c.MustIndex("k_2") != 2 {
		t.Fatal("duplicate k should be renamed k_2 at position 2")
	}

	// A repeat is qualified against every name already taken, the side
	// that already holds x_2 included.
	x := NewSchema(Column{Name: "x", Kind: expr.KindInt})
	xx := Concat(x, x)
	for _, tc := range []struct {
		a, b *Schema
		want []string
	}{
		{x, xx, []string{"x", "x_2", "x_2_2"}},
		{xx, x, []string{"x", "x_2", "x_3"}},
		{xx, xx, []string{"x", "x_2", "x_3", "x_2_2"}},
	} {
		var got []string
		for _, c := range Concat(tc.a, tc.b).Columns() {
			got = append(got, c.Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("Concat(%v, %v) = %v, want %v", tc.a.Columns(), tc.b.Columns(), got, tc.want)
		}
	}
}

func TestTableInsertArity(t *testing.T) {
	tb := NewTable("t", testSchema())
	tb.Insert(expr.Row{expr.Int(1), expr.String("x")})
	if tb.Heap.NumRows() != 1 {
		t.Fatal("row not inserted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity did not panic")
		}
	}()
	tb.Insert(expr.Row{expr.Int(1)})
}

// A column holds one kind: Insert rejects a non-NULL value of another kind
// and names the column, so Int(1) and String("1") — which render alike —
// can never share a column, a page vector or a group-key column. NULL fits
// every column.
func TestTableInsertRejectsAValueOfAnotherKind(t *testing.T) {
	tb := NewTable("t", testSchema())
	tb.Insert(expr.Row{expr.Null(), expr.Null()})
	tb.Insert(expr.Row{expr.Int(1), expr.String("1")})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "t.name") {
			t.Fatalf("Insert of an int into a string column panicked with %q, want a message naming t.name", msg)
		}
		if tb.Heap.NumRows() != 2 {
			t.Fatalf("%d rows stored, want the 2 well-kinded ones", tb.Heap.NumRows())
		}
	}()
	tb.Insert(expr.Row{expr.Int(2), expr.Int(1)})
}

func TestCatalogCreateAndLookup(t *testing.T) {
	c := NewCatalog()
	c.MustCreate(NewTable("b", testSchema()))
	c.MustCreate(NewTable("a", testSchema()))

	if _, err := c.Table("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("zzz"); err == nil {
		t.Fatal("missing table lookup should error")
	}
	if err := c.Create(NewTable("a", testSchema())); err == nil {
		t.Fatal("duplicate create should error")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, want sorted [a b]", names)
	}
}

func TestCatalogTotalBytes(t *testing.T) {
	c := NewCatalog()
	tb := NewTable("t", testSchema())
	tb.Insert(expr.Row{expr.Int(1), expr.String("hello")})
	c.MustCreate(tb)
	if c.TotalBytes() != tb.Heap.Bytes() {
		t.Fatalf("TotalBytes = %d, want %d", c.TotalBytes(), tb.Heap.Bytes())
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable(missing) did not panic")
		}
	}()
	NewCatalog().MustTable("missing")
}
