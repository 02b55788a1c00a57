package storage

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"ecodb/internal/expr"
)

// layoutBatch builds an n-row, NULL-free batch of four columns, one of each
// payload type, starting at key k0.
func layoutBatch(k0, n int) *expr.Batch {
	ks, ds := make([]int64, n), make([]int64, n)
	fs, ss := make([]float64, n), make([]string, n)
	for i := range ks {
		k := int64(k0 + i)
		ks[i], ds[i] = k, 8000+k%2500
		fs[i], ss[i] = float64(k%97)/4, fmt.Sprintf("w%03d", k%211)
	}
	return &expr.Batch{Cols: []expr.ColVec{
		expr.IntVec(expr.KindInt, ks), expr.FloatVec(fs), expr.StringVec(ss), expr.IntVec(expr.KindDate, ds),
	}, N: n}
}

// payload returns the start address, length, capacity and element size of
// v's payload slice.
func payload(v *expr.ColVec) (start uintptr, n, c int, size uintptr) {
	switch {
	case v.Kind == expr.KindFloat:
		return uintptr(unsafe.Pointer(unsafe.SliceData(v.F))), len(v.F), cap(v.F), 8
	case v.Dict != nil:
		return uintptr(unsafe.Pointer(unsafe.SliceData(v.Codes))), len(v.Codes), cap(v.Codes), 4
	case v.Kind == expr.KindString:
		return uintptr(unsafe.Pointer(unsafe.SliceData(v.S))), len(v.S), cap(v.S), unsafe.Sizeof("")
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(v.I))), len(v.I), cap(v.I), 8
}

// checkAdjacentWindows requires that every column of pages [from, to) is a
// window with cap == len, each page's starting where the previous page's
// ends: one array per column, laid out in page order.
func checkAdjacentWindows(t *testing.T, h *Heap, from, to int) {
	t.Helper()
	for c := range h.Page(from).Data.Cols {
		var next uintptr
		for p := from; p < to; p++ {
			start, n, capacity, size := payload(&h.Page(p).Data.Cols[c])
			if n != h.Page(p).NumRows() || capacity != n {
				t.Fatalf("page %d column %d: payload len %d cap %d, want both %d", p, c, n, capacity, h.Page(p).NumRows())
			}
			if p > from && start != next {
				t.Fatalf("page %d column %d starts at %#x, page %d ends at %#x: not one array", p, c, start, p-1, next)
			}
			next = start + uintptr(n)*size
		}
	}
}

// TestAppendBatchPagesAreAdjacentWindows: after one AppendBatch, a
// column's pages are capacity-capped windows lying one after another in
// one backing array — int, float, date and string payloads alike, and the
// dictionary codes CompressStrings leaves behind.
func TestAppendBatchPagesAreAdjacentWindows(t *testing.T) {
	h := NewHeap(512)
	h.AppendBatch(layoutBatch(0, 3000))
	if h.NumPages() < 20 {
		t.Fatalf("%d pages: the case needs many", h.NumPages())
	}
	checkAdjacentWindows(t, h, 0, h.NumPages())
	if h.CompressStrings() != 1 {
		t.Fatal("the string column was not encoded")
	}
	checkAdjacentWindows(t, h, 0, h.NumPages())
}

// pageSnapshot is a deep copy of what a page holds.
type pageSnapshot struct {
	n     int
	bytes int64
	zones []expr.Zone
	cols  []expr.ColVec
}

func snapshot(p *Page) pageSnapshot {
	s := pageSnapshot{n: p.Data.N, bytes: p.Bytes, zones: slices.Clone(p.Zones), cols: make([]expr.ColVec, len(p.Data.Cols))}
	for c := range s.cols {
		s.cols[c].AppendFrom(&p.Data.Cols[c], nil)
	}
	return s
}

// vecDiff describes how g differs from w in kind, NULLs or payload bits,
// "" when it does not.
func vecDiff(g, w *expr.ColVec) string {
	switch {
	case g.Kind != w.Kind || g.Len() != w.Len():
		return fmt.Sprintf("%v × %d, want %v × %d", g.Kind, g.Len(), w.Kind, w.Len())
	case !slices.Equal(g.Nulls, w.Nulls) || (g.Nulls == nil) != (w.Nulls == nil):
		return fmt.Sprintf("NULLs %v, want %v", g.Nulls, w.Nulls)
	case !slices.Equal(g.I, w.I) || !slices.EqualFunc(g.F, w.F, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
		return "numeric payloads differ"
	case !slices.Equal(g.S, w.S):
		return "string payloads differ"
	}
	return ""
}

// samePrefix requires that page p still holds s's rows, zones and
// footprint in its first s.n rows; whole says the page must hold nothing
// more.
func samePrefix(t *testing.T, label string, p *Page, s pageSnapshot, whole bool) {
	t.Helper()
	if whole && (p.Data.N != s.n || p.Bytes != s.bytes || !slices.Equal(p.Zones, s.zones)) {
		t.Fatalf("%s: N %d, %d bytes, zones %+v; want N %d, %d bytes, zones %+v", label, p.Data.N, p.Bytes, p.Zones, s.n, s.bytes, s.zones)
	}
	for c := range s.cols {
		var prefix expr.ColVec
		prefix.AppendRange(&p.Data.Cols[c], 0, s.n)
		if d := vecDiff(&prefix, &s.cols[c]); d != "" {
			t.Fatalf("%s column %d: %s", label, c, d)
		}
	}
}

// TestLaterAppendsLeaveEarlierPagesIntact: overwriting the loaded batch, a
// second AppendBatch (whose first run continues the last page) and then
// Append onto the last page leave every earlier page bit-identical, and the
// continued page's earlier rows too.
func TestLaterAppendsLeaveEarlierPagesIntact(t *testing.T) {
	h := NewHeap(512)
	b := layoutBatch(0, 1000)
	h.AppendBatch(b)
	first := make([]pageSnapshot, h.NumPages())
	for p := range first {
		first[p] = snapshot(h.Page(p))
	}
	last := len(first) - 1
	check := func(label string) {
		t.Helper()
		for p := range first {
			samePrefix(t, fmt.Sprintf("%s: page %d", label, p), h.Page(p), first[p], p < last)
		}
	}

	// The heap copied b: reusing it changes no page.
	for c := range b.Cols {
		clear(b.Cols[c].I)
		clear(b.Cols[c].F)
		clear(b.Cols[c].S)
	}
	check("after b is overwritten")

	h.AppendBatch(layoutBatch(1000, 1000))
	if h.Page(last).NumRows() == first[last].n {
		t.Fatal("the second batch did not continue the last page: the case no longer covers one")
	}
	check("after a second AppendBatch")
	checkAdjacentWindows(t, h, last+1, h.NumPages())

	tail := h.NumPages() - 1
	before := snapshot(h.Page(tail))
	h.Append(expr.Row{expr.Int(-1), expr.Float(-1), expr.String("zz"), expr.Date(-1)})
	if h.NumPages() != tail+1 || h.Page(tail).NumRows() != before.n+1 {
		t.Fatal("Append did not continue the last page: the case no longer covers one")
	}
	check("after Append")
	for p := last + 1; p < tail; p++ {
		if _, _, capacity, _ := payload(&h.Page(p).Data.Cols[0]); capacity != h.Page(p).NumRows() {
			t.Fatalf("page %d: a window's capacity grew to %d", p, capacity)
		}
	}
	samePrefix(t, "continued page", h.Page(tail), before, false)
}

// TestAppendBatchMatchesRowByRowAppend: batches of uneven size, with NULLs
// scattered through one column and a second column NULL across whole pages,
// leave the heap a row-by-row Append leaves, page for page, down to the
// vectors' representation and zones.
func TestAppendBatchMatchesRowByRowAppend(t *testing.T) {
	const rows = 2500
	batch := layoutBatch(0, rows)
	var want []expr.Row
	for i, row := range batch.Rows() {
		if i%7 == 3 {
			row[2] = expr.Value{}
		}
		if i >= 400 && i < 1300 {
			row[1] = expr.Value{}
		}
		want = append(want, row)
	}
	ref := NewHeap(512)
	for _, row := range want {
		ref.Append(row)
	}
	got := NewHeap(512)
	for _, cut := range [][2]int{{0, 1}, {1, 900}, {900, 901}, {901, rows}} {
		b := expr.NewBatch(len(want[0]))
		for _, row := range want[cut[0]:cut[1]] {
			b.AppendRow(row)
		}
		got.AppendBatch(b)
	}
	if got.NumPages() != ref.NumPages() || got.NumRows() != ref.NumRows() || got.Bytes() != ref.Bytes() {
		t.Fatalf("%d pages, %d rows, %d bytes; want %d pages, %d rows, %d bytes",
			got.NumPages(), got.NumRows(), got.Bytes(), ref.NumPages(), ref.NumRows(), ref.Bytes())
	}
	allNull := false
	for p := 0; p < ref.NumPages(); p++ {
		samePrefix(t, fmt.Sprintf("page %d", p), got.Page(p), snapshot(ref.Page(p)), true)
		allNull = allNull || got.Page(p).Data.Cols[1].Kind == expr.KindNull
	}
	if !allNull {
		t.Fatal("no page holds an all-NULL column: the case no longer covers one")
	}
}

// TestAppendBatchAllocatesPerColumnNotPerPagePerColumn: a NULL-free
// AppendBatch allocates once per column for the heap's copy plus a few
// times per page, not once per column per page.
func TestAppendBatchAllocatesPerColumnNotPerPagePerColumn(t *testing.T) {
	b := layoutBatch(0, 3000)
	for i := 0; i < 4; i++ { // eight columns
		b.Cols = append(b.Cols, b.Cols[i])
	}
	width := len(b.Cols)
	pages := 0
	allocs := testing.AllocsPerRun(5, func() {
		h := NewHeap(1024)
		h.AppendBatch(b)
		pages = h.NumPages()
	})
	if pages < 40 {
		t.Fatalf("%d pages: the case needs many more pages than columns", pages)
	}
	if limit := 4 * (width + pages); allocs > float64(limit) {
		t.Fatalf("AppendBatch of %d columns into %d pages made %.0f allocations, want at most %d (width × pages is %d)",
			width, pages, allocs, limit, width*pages)
	}
}
