package catalog

import (
	"ecodb/internal/expr"
)

// ColStats summarizes one column for the optimizer's cardinality model.
type ColStats struct {
	// Min and Max bound the column's non-NULL values; Null when the column
	// is entirely NULL.
	Min, Max expr.Value
	// NDV is the number of distinct non-NULL values.
	NDV int64
	// Nulls reports whether any page holds a NULL in this column.
	Nulls bool
}

// TableStats summarizes a table for costing: cardinality, physical extent,
// and per-column distributions. Min/Max/Nulls are folded from the per-page
// zone maps the heap folds as rows are appended; NDV needs one pass over
// the column vectors (hashed exact counting), done lazily on first request.
type TableStats struct {
	Rows  int64
	Pages int
	Bytes int64
	Cols  []ColStats
}

// Col returns the stats entry for column i.
func (s *TableStats) Col(i int) *ColStats { return &s.Cols[i] }

// Stats returns the table's statistics, computing them on first use and
// caching until the heap grows (heaps are append-only, so row count is a
// complete freshness token). The zone maps folded at load time provide
// min/max/null presence for free; distinct counts hash every value once.
func (t *Table) Stats() *TableStats {
	rows := t.Heap.NumRows()
	if t.stats != nil && t.stats.Rows == rows {
		return t.stats
	}
	width := t.Schema.NumCols()
	st := &TableStats{
		Rows:  rows,
		Pages: t.Heap.NumPages(),
		Bytes: t.Heap.Bytes(),
		Cols:  make([]ColStats, width),
	}
	for c := range st.Cols {
		st.Cols[c].Min = expr.Null()
		st.Cols[c].Max = expr.Null()
	}

	// Fold the per-page zone maps into table-level min/max/null presence.
	for p := 0; p < t.Heap.NumPages(); p++ {
		zones := t.Heap.Page(p).Zones
		for c := range st.Cols {
			cs := &st.Cols[c]
			z := &zones[c]
			if z.HasNulls {
				cs.Nulls = true
			}
			if z.Min.IsNull() {
				continue
			}
			if cs.Min.IsNull() {
				cs.Min, cs.Max = z.Min, z.Max
				continue
			}
			if expr.Compare(z.Min, cs.Min) < 0 {
				cs.Min = z.Min
			}
			if expr.Compare(z.Max, cs.Max) > 0 {
				cs.Max = z.Max
			}
		}
	}

	// Distinct counts: one hashed pass per column. Hash collisions can
	// only undercount, and at 64 bits they are vanishingly rare at the
	// simulated scale factors.
	seen := make(map[uint64]struct{})
	for c := 0; c < width; c++ {
		clear(seen)
		for p := 0; p < t.Heap.NumPages(); p++ {
			page := t.Heap.Page(p)
			vec := &page.Data.Cols[c]
			for i := 0; i < page.Data.N; i++ {
				v := vec.Get(i)
				if v.IsNull() {
					continue
				}
				seen[expr.HashValue(v)] = struct{}{}
			}
		}
		st.Cols[c].NDV = int64(len(seen))
	}

	t.stats = st
	return st
}
