package catalog_test

import (
	"fmt"
	"math"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/oracle"
	"ecodb/internal/tpch"
)

// checkStatsMatchReference requires every column's typed statistics to
// equal the oracle's: NDV, null presence, and bounds down to their bits
// (numerics as float64, strings as strings).
func checkStatsMatchReference(t *testing.T, label string, tab *catalog.Table) {
	t.Helper()
	st := tab.Stats()
	for c, want := range oracle.Stats(tab) {
		if got := st.Col(c); !want.Matches(got) {
			t.Fatalf("%s %s.%s: stats %+v, oracle %+v", label, tab.Name, tab.Schema.Columns()[c].Name, *got, want)
		}
	}
}

// TestTableStatsMatchBoxedReference compares Stats with the oracle's
// boxed statistics on every TPC-H table at two scale factors, with and
// without dictionary-encoded strings.
func TestTableStatsMatchBoxedReference(t *testing.T) {
	for _, sf := range []float64{0.002, 0.01} {
		for _, compress := range []bool{false, true} {
			cat := catalog.NewCatalog()
			tpch.NewGenerator(sf, 42).Load(cat)
			for _, name := range tpch.Tables {
				tab := cat.MustTable(name)
				if compress {
					tab.Heap.CompressStrings()
				}
				checkStatsMatchReference(t, fmt.Sprintf("sf %v compressed=%v", sf, compress), tab)
			}
		}
	}
}

// TestTableStatsMatchBoxedReferenceHandBuilt compares Stats with the
// oracle's boxed statistics on columns TPC-H lacks, each spanning many
// pages: entirely NULL, signed zeros (whose first-seen sign the bounds
// keep), and strings with NULLs.
func TestTableStatsMatchBoxedReferenceHandBuilt(t *testing.T) {
	tab := catalog.NewTable("h", catalog.NewSchema(
		catalog.Column{Name: "none", Kind: expr.KindInt},
		catalog.Column{Name: "zeros", Kind: expr.KindFloat},
		catalog.Column{Name: "words", Kind: expr.KindString},
	))
	negZero := math.Copysign(0, -1)
	for i := 0; i < 3000; i++ {
		zero := expr.Float(0)
		if i%7 < 3 {
			zero = expr.Float(negZero)
		}
		word := expr.String([]string{"pear", "", "apple", "fig"}[i%4])
		if i%5 == 0 {
			word = expr.Null()
		}
		tab.Insert(expr.Row{expr.Null(), zero, word})
	}
	if tab.Heap.NumPages() < 3 {
		t.Fatalf("hand-built table fits in %d pages; want several to merge", tab.Heap.NumPages())
	}
	checkStatsMatchReference(t, "hand-built", tab)
	if got := tab.Stats().Col(1).NDV; got != 1 {
		t.Fatalf("signed zeros counted as %d distinct values, want 1", got)
	}
}
