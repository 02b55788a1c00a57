// Package storage provides heap table storage and a buffer pool. Tables
// are divided into fixed-target-size pages; the buffer pool tracks which
// pages are resident and charges simulated disk reads for misses, which is
// how cold-vs-warm runs (paper §3.5) differ.
package storage

import (
	"fmt"
	"slices"

	"ecodb/internal/expr"
)

// DefaultPageBytes is the target page size, matching the 8 KB pages common
// to the paper's engines.
const DefaultPageBytes = 8 << 10

// Page holds one page's tuples in columnar layout — the on-"disk" unit the
// executor scans — with a storage footprint estimate and per-column zone
// maps. Data's vectors are windows into the heap's column arrays (see
// Heap.AppendBatch): scans hand out zero-copy views of them, so consumers
// must never mutate a page's batch.
type Page struct {
	Data  expr.Batch
	Bytes int64
	// Zones holds one min/max/null-presence entry per column, folded over
	// each run of rows appended. Always present; whether scans consult it is
	// the statement's choice (exec.Ctx.ZoneMapPruning).
	Zones []expr.Zone
}

// NumRows returns the page's tuple count.
func (p *Page) NumRows() int { return p.Data.N }

// Rows materializes the page's tuples as rows with fresh backing — the
// row-major view loaders and tests use; the executor reads Data directly.
func (p *Page) Rows() []expr.Row { return p.Data.Rows() }

// Heap is an append-only heap file of pages. The paper's experiments
// create no indices ("In all our experiments, we did not create any
// database indices"), so heaps and full scans are the only access path.
type Heap struct {
	pageTarget int64
	pages      []*Page
	rows       int64
	bytes      int64
}

// NewHeap returns an empty heap with the given target page size in bytes;
// zero or negative selects DefaultPageBytes.
func NewHeap(pageTargetBytes int64) *Heap {
	if pageTargetBytes <= 0 {
		pageTargetBytes = DefaultPageBytes
	}
	return &Heap{pageTarget: pageTargetBytes}
}

// Append adds one row to the heap: AppendBatch of a one-row batch, so a
// row inserted alone lands where it would in a bulk load.
func (h *Heap) Append(row expr.Row) {
	b := expr.NewBatch(len(row))
	b.AppendRow(row)
	h.AppendBatch(b)
}

// AppendBatch appends b's rows (b must carry no selection), column by
// column. Rows fill the last page while its footprint stays within the
// target size, and start a new page when the next row would overflow it;
// a page always takes its first row. Footprints are the row-major
// estimate Row.Bytes, so page boundaries depend neither on layout nor on
// how the rows were batched.
//
// The heap copies each of b's columns at most once, into one array it
// owns, and the pages it opens are windows into that array
// (expr.ColVec.Window): a column's pages lie one after another in memory,
// in page order, so a scan reads them as one stream. A window's capacity
// ends where its page does, so a later append to the page (the last one,
// continued by the next call or by Append) copies it out and never writes
// into its neighbour. A run that continues an existing page, or that
// holds a NULL, is copied into the page's vector instead (AppendRange),
// which keeps an all-NULL run KindNull with no payload. Zones fold each
// appended run. Either way b may be dropped or reused once AppendBatch
// returns.
func (h *Heap) AppendBatch(b *expr.Batch) {
	if b.Sel != nil {
		panic("storage: AppendBatch of a batch with a selection")
	}
	// own holds the heap's copy of b's rows [base, b.N), column by column:
	// base is where the first fresh page starts, and a column is copied
	// when one of its runs is first windowed.
	var own []expr.ColVec
	base := 0
	for from := 0; from < b.N; {
		rb := b.RowBytes(from)
		n := len(h.pages)
		fresh := n == 0 || h.pages[n-1].Bytes+rb > h.pageTarget
		if fresh {
			h.pages = append(h.pages, &Page{
				Data:  expr.Batch{Cols: make([]expr.ColVec, len(b.Cols))},
				Zones: make([]expr.Zone, len(b.Cols)),
			})
			n++
			if own == nil {
				own, base = make([]expr.ColVec, len(b.Cols)), from
			}
		}
		p := h.pages[n-1]
		to, bytes := from+1, p.Bytes+rb
		for ; to < b.N; to++ {
			rb = b.RowBytes(to)
			if bytes+rb > h.pageTarget {
				break
			}
			bytes += rb
		}
		for c := range p.Data.Cols {
			vec, src := &p.Data.Cols[c], &b.Cols[c]
			if fresh && !(src.Nulls != nil && slices.Contains(src.Nulls[from:to], true)) {
				if own[c].Len() == 0 {
					own[c].AppendRange(src, base, b.N)
				}
				*vec = own[c].Window(from-base, to-base)
				vec.Nulls = nil // the run holds no NULL
			} else {
				vec.AppendRange(src, from, to)
			}
			p.Zones[c].Fold(vec, p.Data.N, vec.Len())
		}
		p.Data.N += to - from
		h.rows += int64(to - from)
		h.bytes += bytes - p.Bytes
		p.Bytes = bytes
		from = to
	}
}

// NumPages returns the page count.
func (h *Heap) NumPages() int { return len(h.pages) }

// NumRows returns the row count.
func (h *Heap) NumRows() int64 { return h.rows }

// Bytes returns the estimated total storage footprint.
func (h *Heap) Bytes() int64 { return h.bytes }

// Page returns page i. It panics on out-of-range access.
func (h *Heap) Page(i int) *Page {
	if i < 0 || i >= len(h.pages) {
		panic(fmt.Sprintf("storage: page %d out of range [0,%d)", i, len(h.pages)))
	}
	return h.pages[i]
}

// PageTarget returns the configured target page size.
func (h *Heap) PageTarget() int64 { return h.pageTarget }

// CompressStrings dictionary-encodes the heap's string columns in place and
// returns how many columns were encoded. For each string column it builds
// one global sorted dictionary over the column's distinct words, encodes
// every page's vector into one codes array against it, and leaves each
// page a window of that array, as AppendBatch leaves loaded pages.
// Logical content, page boundaries, and the byte footprint the simulation
// charges are unchanged: encoding is a physical-layout choice, and results
// must be bit-identical either way.
// Call only after loading is complete and before scans start.
func (h *Heap) CompressStrings() int {
	if len(h.pages) == 0 {
		return 0
	}
	width := len(h.pages[0].Data.Cols)
	encoded := 0
	for c := 0; c < width; c++ {
		rows := 0
		seen := make(map[string]struct{})
		var words []string
		for _, p := range h.pages {
			vec := &p.Data.Cols[c]
			if vec.Kind != expr.KindString {
				continue // another kind, or an all-NULL page
			}
			rows += vec.Len()
			for i, s := range vec.S {
				if vec.Nulls != nil && vec.Nulls[i] {
					continue
				}
				if _, ok := seen[s]; !ok {
					seen[s] = struct{}{}
					words = append(words, s)
				}
			}
		}
		if rows == 0 {
			continue
		}
		dict := expr.NewDict(words)
		codes := make([]int32, rows)
		for _, p := range h.pages {
			vec := &p.Data.Cols[c]
			if vec.Kind == expr.KindString {
				n := vec.Len()
				vec.EncodeDictInto(dict, codes[:n:n])
				codes = codes[n:]
			}
		}
		encoded++
	}
	return encoded
}
