// Package scanshare implements cooperative shared scans: one circular pass
// over a heap serves any number of in-flight queries at once. This is the
// work-sharing lever of the eco-friendly-DBMS literature generalized past
// QED's predicate merging — where mqo.Merge only folds structurally
// identical equality selections into one disjunction, a shared scan lets
// *arbitrary* concurrent scans of a table ride one physical pass, so the
// pass's I/O and page streaming are paid once no matter how many queries
// consume it.
//
// A per-table Coordinator owns the pass: a cursor over the heap's pages
// that wraps past the last page back to the first. Consumers attach at the
// pass's current position (their entry page), receive every page the pass
// steps over from then on, and are done after one full wrap-around lap —
// every page seen exactly once, in pass order. The pass itself has no
// start or end: it advances only when some consumer pulls and nothing is
// buffered for it, and it keeps its position between consumers, so a late
// arrival simply joins mid-lap (the elevator behaviour of circular-scan
// designs).
//
// Charging rules (the subsystem's energy story):
//
//   - Buffer-pool accesses — and therefore simulated disk reads — happen
//     inside the coordinator, once per page the pass surfaces, regardless
//     of how many consumers receive the page.
//   - The Surface callback fires once per surfaced page on the consumer
//     whose pull advanced the pass; the executor charges the shared
//     page-stream cycles (one memory stream moves the page) and the page
//     hook there.
//   - Everything per-query — tuple interpretation, predicate evaluation,
//     result materialization — is charged by each consumer on its own
//     execution context as it processes the shared pages.
//
// Like the rest of the simulated machine, a Coordinator is single-threaded:
// consumers interleave pulls cooperatively on one goroutine, so simulated
// durations and joules are deterministic for a fixed attach and pull order.
// A consumer's per-tuple work may run elsewhere — the executor's producers
// filter, aggregate, sort or probe the pages of its lap in parallel — but
// its pulls, the pass and every charge stay on that one goroutine. That
// order is also all a scheduler's priorities are (internal/server): the
// pass is symmetric and knows none.
package scanshare

import (
	"fmt"

	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// Surface is the shared-side accounting hook: the coordinator invokes it
// exactly once per page the pass surfaces (not once per consumer), on the
// pull that advanced the pass. bytes is the page's storage footprint.
type Surface func(idx int, bytes int64)

// Prune is a consumer's page-skip test: given a page's zone maps it
// reports whether the consumer's predicate can be satisfied nowhere on the
// page. It must be pure — the coordinator may evaluate it more than once
// per page.
type Prune func(zones []expr.Zone) bool

// PassStats counts the coordinator's sharing traffic.
type PassStats struct {
	// PagesSurfaced is how many pages the pass physically read (buffer
	// pool touched, shared charges fired) — the "one I/O stream".
	PagesSurfaced int64
	// PagesDelivered counts page deliveries across all consumers; the
	// ratio PagesDelivered/PagesSurfaced is the sharing factor.
	PagesDelivered int64
	// PagesPruned is how many pass steps skipped the page entirely because
	// every consumer that still needed it pruned it by zone maps — no
	// buffer-pool touch, no surface charge.
	PagesPruned int64
	// Attaches counts consumers admitted over the coordinator's lifetime.
	Attaches int64
}

// Coordinator owns one table's shared circular pass. It is not safe for
// concurrent use — like the simulated CPU it serves, it assumes the
// cooperative single-threaded execution model.
type Coordinator struct {
	heap  *storage.Heap
	table string
	pool  *storage.BufferPool // nil for an all-in-memory engine
	pos   int                 // the page the pass steps over next

	active []*Consumer
	stats  PassStats

	// Lap accounting: a "pass" is one full wrap-around of the cursor —
	// NumPages steps, skipped or surfaced. The coordinator snapshots the
	// stats delta over each completed lap so callers can see sharing
	// traffic per pass rather than only over the coordinator's lifetime.
	passSteps int       // steps into the current lap
	lapStart  PassStats // lifetime stats at the start of the current lap
	lastPass  PassStats // stats delta over the most recently completed lap
	passes    int64
}

// NewCoordinator returns a coordinator for heap, its pass at page 0. table
// names the heap in buffer-pool page IDs; pool may be nil for an
// all-in-memory engine.
func NewCoordinator(heap *storage.Heap, table string, pool *storage.BufferPool) *Coordinator {
	return &Coordinator{heap: heap, table: table, pool: pool}
}

// Table returns the name the coordinator's pages are registered under.
func (c *Coordinator) Table() string { return c.table }

// Pos returns the pass's current position — the entry page the next
// attaching consumer will remember.
func (c *Coordinator) Pos() int { return c.pos }

// Attached returns how many consumers are currently attached.
func (c *Coordinator) Attached() int { return len(c.active) }

// Stats returns the sharing counters accumulated so far.
func (c *Coordinator) Stats() PassStats { return c.stats }

// Passes returns how many full wrap-around laps the pass has completed.
func (c *Coordinator) Passes() int64 { return c.passes }

// LastPass returns the sharing counters of the most recently completed
// lap — the zero PassStats before the first lap completes.
func (c *Coordinator) LastPass() PassStats { return c.lastPass }

// stepDone moves the cursor past the page it stepped over (skipped or
// surfaced) and, when that completes a lap, publishes the lap's stats
// delta.
func (c *Coordinator) stepDone() {
	n := c.heap.NumPages()
	c.pos = (c.pos + 1) % n
	c.passSteps++
	if c.passSteps < n {
		return
	}
	c.passSteps = 0
	c.lastPass = PassStats{
		PagesSurfaced:  c.stats.PagesSurfaced - c.lapStart.PagesSurfaced,
		PagesDelivered: c.stats.PagesDelivered - c.lapStart.PagesDelivered,
		PagesPruned:    c.stats.PagesPruned - c.lapStart.PagesPruned,
		Attaches:       c.stats.Attaches - c.lapStart.Attaches,
	}
	c.lapStart = c.stats
	c.passes++
	obsv.SharedPasses.Inc()
}

// Attach admits a consumer into the pass at its current position. The
// consumer will receive every heap page exactly once, starting at the
// entry page and wrapping, and must be Closed when its query finishes.
func (c *Coordinator) Attach() *Consumer { return c.AttachPruned(nil) }

// AttachPruned admits a consumer with a zone-map prune test. Pages the
// test rejects are delivered as pruned (the consumer counts them toward
// its lap and charges its zone check, but gets no data); a pass step whose
// every needy consumer prunes the page skips it physically — no buffer
// pool, no surface charge. prune nil never prunes, making Attach the
// degenerate case.
func (c *Coordinator) AttachPruned(prune Prune) *Consumer {
	k := &Consumer{
		coord:     c,
		prune:     prune,
		entry:     c.pos,
		remaining: c.heap.NumPages(),
	}
	c.active = append(c.active, k)
	c.stats.Attaches++
	obsv.SharedAttaches.Inc()
	return k
}

// advance steps the pass by one page. When at least one consumer that
// still needs the page does not prune it, the pass surfaces it — buffer
// pool touched, surface hook fired once — and every needy consumer has it
// delivered (as pruned to those whose test rejects it, so they skip their
// per-tuple work). When every needy consumer prunes it, the pass skips the
// page without reading: the deliveries advance but no physical or shared
// charge exists for the page.
func (c *Coordinator) advance(surface Surface) {
	if c.heap.NumPages() == 0 {
		return // empty heap: nothing to surface, consumers are born done
	}
	idx := c.pos
	page := c.heap.Page(idx)
	needed := false
	for _, k := range c.active {
		if k.remaining > 0 && !k.prunes(page.Zones) {
			needed = true
			break
		}
	}
	if needed {
		if c.pool != nil {
			c.pool.Access(storage.PageID{Table: c.table, Index: idx}, page.Bytes)
		}
		c.stats.PagesSurfaced++
		obsv.SharedSurfaced.Inc()
	} else {
		c.stats.PagesPruned++
		obsv.PagesPruned.Inc()
	}
	for _, k := range c.active {
		if k.remaining > 0 {
			k.remaining--
			k.buffered++
			if needed {
				c.stats.PagesDelivered++
			}
		}
	}
	if needed && surface != nil {
		surface(idx, page.Bytes)
	}
	c.stepDone()
}

// detach removes k from the active set.
func (c *Coordinator) detach(k *Consumer) {
	for i, a := range c.active {
		if a == k {
			c.active = append(c.active[:i], c.active[i+1:]...)
			return
		}
	}
}

// Consumer is one query's membership in a shared pass. The steps the pass
// has delivered to it and it has not consumed yet are the buffered pages
// after the seen ones, in pass order from its entry page; whether one is
// pruned for it is its own test's verdict, since the pass skips a page only
// when every needy consumer's test rejects it.
type Consumer struct {
	coord     *Coordinator
	prune     Prune // nil: never prunes
	entry     int
	buffered  int // delivered, unconsumed steps
	remaining int // pages the pass has yet to deliver to this consumer
	seen      int64
	pruned    int64
	closed    bool
}

// prunes reports whether the consumer's test rejects a page with the given
// zone maps.
func (k *Consumer) prunes(zones []expr.Zone) bool {
	return k.prune != nil && len(zones) > 0 && k.prune(zones)
}

// Entry returns the page index at which the consumer joined the pass —
// the first page it receives.
func (k *Consumer) Entry() int { return k.entry }

// PagesSeen returns how many pass steps the consumer has consumed so far,
// pruned steps included.
func (k *Consumer) PagesSeen() int64 { return k.seen }

// PagesPruned returns how many of the consumer's steps were pruned.
func (k *Consumer) PagesPruned() int64 { return k.pruned }

// Next returns the consumer's next pass step in pass order. When nothing
// is buffered it advances the shared pass, firing surface once for the
// newly surfaced page (see Surface); pages another consumer's pulls
// already surfaced are served from the buffer with no shared charge. A
// step with pruned true carries no page — the consumer's zone-map test
// rejected it, so the caller charges its zone check and moves on. ok is
// false once the consumer has seen every heap page exactly once —
// immediately, for an empty heap.
func (k *Consumer) Next(surface Surface) (idx int, page *storage.Page, pruned bool, ok bool) {
	if k.closed {
		panic(fmt.Sprintf("scanshare: Next on closed consumer of %q", k.coord.table))
	}
	if k.buffered == 0 {
		if k.remaining == 0 {
			return 0, nil, false, false
		}
		k.coord.advance(surface)
	}
	heap := k.coord.heap
	idx = (k.entry + int(k.seen)) % heap.NumPages()
	page = heap.Page(idx)
	k.buffered--
	k.seen++
	if k.prunes(page.Zones) {
		k.pruned++
		return idx, nil, true, true
	}
	return idx, page, false, true
}

// Close detaches the consumer from the pass. It is idempotent; a closed
// consumer must not be used again.
func (k *Consumer) Close() {
	if k.closed {
		return
	}
	k.closed = true
	k.coord.detach(k)
}
