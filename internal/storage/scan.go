package storage

import (
	"sync/atomic"

	"ecodb/internal/expr"
)

// CircularScan is a wrap-aware cursor over a heap's pages — the storage
// half of the shared-scan subsystem and the circular cousin of
// MorselSource. The cursor can start at any page and wraps past the last
// page back to the first, so a pass has no intrinsic end: consumers that
// join mid-pass (remembering their entry page) bound their own reading at
// one full lap. Each surfaced page touches the buffer pool when one is
// attached, so misses become simulated disk reads exactly where the pass
// physically reads.
type CircularScan struct {
	heap  *Heap
	table string
	pool  *BufferPool // nil for an all-in-memory engine
	cur   int
}

// NewCircularScan returns a circular cursor over heap's pages starting at
// page start (normalized into range; empty heaps pin the cursor at 0).
func NewCircularScan(heap *Heap, table string, pool *BufferPool, start int) *CircularScan {
	s := &CircularScan{heap: heap, table: table, pool: pool}
	if n := heap.NumPages(); n > 0 {
		s.cur = ((start % n) + n) % n
	}
	return s
}

// Pos returns the page index the next call to Next will surface — the
// entry page a consumer attaching now should remember.
func (s *CircularScan) Pos() int { return s.cur }

// Next surfaces the page under the cursor, touching the buffer pool when
// one is attached, and advances with wrap-around. ok is false only when
// the heap has no pages; otherwise the cursor circles forever and the
// caller decides when its lap is complete.
func (s *CircularScan) Next() (idx int, page *Page, ok bool) {
	n := s.heap.NumPages()
	if n == 0 {
		return 0, nil, false
	}
	idx = s.cur
	page = s.heap.Page(idx)
	if s.pool != nil {
		s.pool.Access(PageID{Table: s.table, Index: idx}, page.Bytes)
	}
	s.cur = (idx + 1) % n
	return idx, page, true
}

// PeekZones returns the zone maps of the page under the cursor without
// advancing and without touching the buffer pool. ok is false when the
// heap has no pages.
func (s *CircularScan) PeekZones() (zones []expr.Zone, ok bool) {
	if s.heap.NumPages() == 0 {
		return nil, false
	}
	return s.heap.Page(s.cur).Zones, true
}

// Skip advances past the page under the cursor without touching the buffer
// pool: a pruned page is never physically read, so no disk or pool state
// changes.
func (s *CircularScan) Skip() (idx int, ok bool) {
	n := s.heap.NumPages()
	if n == 0 {
		return 0, false
	}
	idx = s.cur
	s.cur = (idx + 1) % n
	return idx, true
}

// DefaultMorselRunLength is how many adjacent pages one morsel-run handout
// covers. Run-length handout gives a worker NUMA-style affinity: it keeps
// claiming neighbouring pages (socket-local in a real machine) instead of
// interleaving with every other worker page by page.
const DefaultMorselRunLength = 8

// MorselSource hands out a heap's pages to concurrent workers in runs of
// adjacent pages. It is the storage half of the morsel-driven parallel
// executor: a handout is a single atomic increment on the run counter, so
// any number of worker goroutines can claim runs without locking, and each
// worker then walks its run's pages in order. Buffer-pool accounting is
// deliberately absent here — the pool and the rest of the simulated
// machine are single-threaded, so the executor's coordinator replays pool
// accesses in page order while merging worker results, which keeps
// simulated time and energy deterministic regardless of run length or
// worker count.
type MorselSource struct {
	heap    *Heap
	nextRun atomic.Int64
}

// MorselRun is one handout: the adjacent pages [Start, End).
type MorselRun struct {
	Start, End int
}

// NewMorselSource returns a concurrent cursor handing out heap's pages in
// runs of DefaultMorselRunLength adjacent pages.
func NewMorselSource(heap *Heap) *MorselSource {
	return &MorselSource{heap: heap}
}

// NumMorsels returns how many morsels (pages) the source serves in total.
func (s *MorselSource) NumMorsels() int { return s.heap.NumPages() }

// NextRun claims the next unclaimed run of adjacent pages; ok is false
// once the heap is exhausted. Runs are claimed in ascending page order
// (run k covers pages [k·L, (k+1)·L) for L = DefaultMorselRunLength,
// clipped to the heap). Safe for concurrent use.
func (s *MorselSource) NextRun() (run MorselRun, ok bool) {
	r := int(s.nextRun.Add(1)) - 1
	start := r * DefaultMorselRunLength
	n := s.heap.NumPages()
	if start >= n {
		return MorselRun{}, false
	}
	return MorselRun{Start: start, End: min(start+DefaultMorselRunLength, n)}, true
}

// Page returns page i of the underlying heap, for workers walking a
// claimed run.
func (s *MorselSource) Page(i int) *Page { return s.heap.Page(i) }
