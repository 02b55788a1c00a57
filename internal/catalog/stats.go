package catalog

import (
	"ecodb/internal/expr"
)

// ColStats summarizes one column for the optimizer's cardinality model:
// the merge of its page zones — bounds and null presence — plus its
// distinct count.
type ColStats struct {
	expr.Zone
	// NDV is the number of distinct non-NULL values.
	NDV int64
}

// TableStats summarizes a table for costing: cardinality, physical extent,
// and per-column distributions. Column bounds and null presence are merged
// from the per-page zone maps the heap folds as rows are appended; NDV
// needs one pass over the column payloads (exact counting), done lazily on
// first request.
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
// bounds and null presence for free; distinct counts read every value once.
func (t *Table) Stats() *TableStats {
	rows := t.Heap.NumRows()
	if t.stats != nil && t.stats.Rows == rows {
		return t.stats
	}
	st := &TableStats{
		Rows:  rows,
		Pages: t.Heap.NumPages(),
		Bytes: t.Heap.Bytes(),
		Cols:  make([]ColStats, t.Schema.NumCols()),
	}
	for c := range st.Cols {
		for p := 0; p < st.Pages; p++ {
			st.Cols[c].Merge(&t.Heap.Page(p).Zones[c])
		}
		st.Cols[c].NDV = t.distinct(c)
	}
	t.stats = st
	return st
}

// distinct counts column c's distinct non-NULL values exactly, over the
// page payloads: integer kinds by their bits, floats by expr.FloatKey (so
// -0 and +0 are one value), strings by value.
func (t *Table) distinct(c int) int64 {
	bits := make(map[uint64]struct{})
	strs := make(map[string]struct{})
	for p := 0; p < t.Heap.NumPages(); p++ {
		v := &t.Heap.Page(p).Data.Cols[c]
		for i := 0; i < v.Len(); i++ {
			switch {
			case v.IsNull(i):
			case v.Kind == expr.KindFloat:
				bits[expr.FloatKey(v.F[i])] = struct{}{}
			case v.Dict != nil:
				strs[v.Dict.Word(v.Codes[i])] = struct{}{}
			case v.Kind == expr.KindString:
				strs[v.S[i]] = struct{}{}
			default:
				bits[uint64(v.I[i])] = struct{}{}
			}
		}
	}
	return int64(len(bits) + len(strs))
}
