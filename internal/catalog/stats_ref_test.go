package catalog_test

import (
	"fmt"
	"math"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/tpch"
)

// refColStats is one column's statistics as Table.Stats computed them
// before column summaries were typed: boxed bounds, folded with Compare
// over boxed page zones, and a distinct count of 64-bit hashes of the
// boxed values.
type refColStats struct {
	Min, Max expr.Value // Null when the column is entirely NULL
	NDV      int64
	Nulls    bool
}

// refStats is that computation, kept as the reference the typed Stats
// must reproduce. Each page zone is rebuilt by the per-value update the
// heap's fold reproduces (the first non-NULL value seeds both bounds, a
// later one replaces a bound only when Compare puts it strictly beyond).
func refStats(t *catalog.Table) []refColStats {
	cols := make([]refColStats, t.Schema.NumCols())
	for c := range cols {
		cs := &cols[c]
		seen := make(map[uint64]struct{})
		for p := 0; p < t.Heap.NumPages(); p++ {
			page := t.Heap.Page(p)
			var lo, hi expr.Value
			for i := 0; i < page.Data.N; i++ {
				v := page.Data.Cols[c].Get(i)
				switch {
				case v.IsNull():
					cs.Nulls = true
					continue
				case lo.IsNull():
					lo, hi = v, v
				case expr.Compare(v, lo) < 0:
					lo = v
				case expr.Compare(v, hi) > 0:
					hi = v
				}
				seen[refHash(v)] = struct{}{}
			}
			switch {
			case lo.IsNull():
			case cs.Min.IsNull():
				cs.Min, cs.Max = lo, hi
			default:
				if expr.Compare(lo, cs.Min) < 0 {
					cs.Min = lo
				}
				if expr.Compare(hi, cs.Max) > 0 {
					cs.Max = hi
				}
			}
		}
		cs.NDV = int64(len(seen))
	}
	return cols
}

// refHash is FNV-1a over a value's group-key encoding — kind tag, then the
// 8-byte payload or the length-prefixed string — with -0 normalized to +0,
// the hash the boxed distinct count keyed on.
func refHash(v expr.Value) uint64 {
	h := uint64(14695981039346656037)
	put := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	put64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			put(byte(x >> (8 * i)))
		}
	}
	put(byte(v.Kind))
	switch v.Kind {
	case expr.KindFloat:
		f := v.F
		if f == 0 {
			f = 0
		}
		put64(math.Float64bits(f))
	case expr.KindString:
		put64(uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			put(v.S[i])
		}
	default:
		put64(uint64(v.I))
	}
	return h
}

// checkStatsMatchReference requires every column's typed statistics to
// equal the reference: NDV, null presence, and bounds down to their bits
// (numerics as float64, strings as strings).
func checkStatsMatchReference(t *testing.T, label string, tab *catalog.Table) {
	t.Helper()
	st := tab.Stats()
	for c, want := range refStats(tab) {
		got := st.Col(c)
		name := tab.Schema.Columns()[c].Name
		same := got.NDV == want.NDV && got.HasNulls == want.Nulls && got.Kind == want.Min.Kind
		switch {
		case !same, got.Kind == expr.KindNull:
		case got.Kind == expr.KindString:
			same = got.SLo == want.Min.S && got.SHi == want.Max.S
		default:
			same = math.Float64bits(got.Lo) == math.Float64bits(want.Min.AsFloat()) &&
				math.Float64bits(got.Hi) == math.Float64bits(want.Max.AsFloat())
		}
		if !same {
			t.Fatalf("%s %s.%s: stats %+v, reference %+v", label, tab.Name, name, *got, want)
		}
	}
}

// TestTableStatsMatchBoxedReference compares Stats with the boxed
// reference on every TPC-H table at two scale factors, with and without
// dictionary-encoded strings.
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

// TestTableStatsMatchBoxedReferenceHandBuilt compares Stats with the boxed
// reference on columns TPC-H lacks, each spanning many pages: entirely
// NULL, signed zeros (whose first-seen sign the bounds keep), and strings
// with NULLs.
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
