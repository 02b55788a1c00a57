package storage

import "sync/atomic"

// DefaultMorselRunLength is how many adjacent pages one morsel-run handout
// covers. Run-length handout gives a worker NUMA-style affinity: it keeps
// claiming neighbouring pages (socket-local in a real machine) instead of
// interleaving with every other worker page by page. A run is also the unit
// a pooled producer hands its coordinator, and an aggregation's or a
// sort's partial: each handoff costs a channel round trip and a fresh
// partial, so a longer run spends less on meeting. The executor lets each
// producer hold one run in flight, so the length also sets the pages of
// records a statement holds in flight.
const DefaultMorselRunLength = 32

// MorselSource hands out a heap's pages to concurrent workers in runs of
// adjacent positions. It is the storage half of the morsel-driven parallel
// executor: a handout is a single atomic increment on the run counter, so
// any number of worker goroutines can claim runs without locking, and each
// worker then walks its run's positions in order. Position pos is page
// (entry+pos) mod n, so one lap of positions covers every page once: a
// private scan starts at page 0, a shared-pass consumer at the page where
// it joined the pass, wrapping past the last page back to the first.
// Buffer-pool accounting is deliberately absent here — the pool and the
// rest of the simulated machine are single-threaded, so the executor's
// coordinator replays pool accesses in position order while merging worker
// results, which keeps simulated time and energy deterministic regardless
// of run length or worker count.
type MorselSource struct {
	heap    *Heap
	entry   int
	nextRun atomic.Int64
}

// MorselRun is one handout: the adjacent positions [Start, End).
type MorselRun struct {
	Start, End int
}

// NewMorselSource returns a concurrent cursor handing out heap's pages from
// page 0 in runs of DefaultMorselRunLength adjacent pages.
func NewMorselSource(heap *Heap) *MorselSource { return NewMorselSourceFrom(heap, 0) }

// NewMorselSourceFrom returns a concurrent cursor whose position 0 is page
// entry (normalized into range).
func NewMorselSourceFrom(heap *Heap, entry int) *MorselSource {
	s := &MorselSource{heap: heap}
	if n := heap.NumPages(); n > 0 {
		s.entry = (entry%n + n) % n
	}
	return s
}

// NumMorsels returns how many morsels (pages) the source serves in total.
func (s *MorselSource) NumMorsels() int { return s.heap.NumPages() }

// NextRun claims the next unclaimed run of adjacent positions; ok is false
// once the lap is exhausted. Runs are claimed in ascending position order
// (run k covers positions [k·L, (k+1)·L) for L = DefaultMorselRunLength,
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

// Index returns the index of the page at position pos.
func (s *MorselSource) Index(pos int) int {
	if s.entry == 0 {
		return pos
	}
	return (s.entry + pos) % s.heap.NumPages()
}

// Page returns the page at position pos, for workers walking a claimed run.
func (s *MorselSource) Page(pos int) *Page { return s.heap.Page(s.Index(pos)) }
