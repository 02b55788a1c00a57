package scanshare

import (
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// heapOf builds a heap whose pages hold a handful of tagged rows each.
func heapOf(t *testing.T, rows int) *storage.Heap {
	t.Helper()
	h := storage.NewHeap(256)
	for i := 0; i < rows; i++ {
		h.Append(expr.Row{expr.Int(int64(i))})
	}
	return h
}

// drain pulls the consumer to completion, returning the page indexes in
// the order received.
func drain(k *Consumer, surface Surface) []int {
	var got []int
	for {
		idx, _, _, ok := k.Next(surface)
		if !ok {
			return got
		}
		got = append(got, idx)
	}
}

func TestSingleConsumerSeesAllPagesInOrder(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	c := NewCoordinator(h, "t", nil)
	k := c.Attach()
	if k.Entry() != 0 {
		t.Fatalf("fresh pass entry = %d, want 0", k.Entry())
	}
	got := drain(k, nil)
	if len(got) != n {
		t.Fatalf("consumer saw %d pages, want %d", len(got), n)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("page %d arrived as %d: a fresh pass must run in page order", i, idx)
		}
	}
	k.Close()
	if c.Attached() != 0 {
		t.Fatal("consumer still attached after Close")
	}
	// A completed lap leaves the cursor back at the entry page.
	if c.Pos() != 0 {
		t.Fatalf("pass position after full lap = %d, want 0", c.Pos())
	}
}

func TestSharedPassSurfacesOncePerPage(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	c := NewCoordinator(h, "t", nil)

	const consumers = 4
	ks := make([]*Consumer, consumers)
	for i := range ks {
		ks[i] = c.Attach()
	}
	surfaced := make(map[int]int)
	surface := func(idx int, bytes int64) {
		if bytes <= 0 {
			t.Fatalf("page %d surfaced with %d bytes", idx, bytes)
		}
		surfaced[idx]++
	}
	// Round-robin pulls, one page per consumer per round.
	done := 0
	for done < consumers {
		done = 0
		for _, k := range ks {
			if _, _, _, ok := k.Next(surface); !ok {
				done++
			}
		}
	}
	if len(surfaced) != n {
		t.Fatalf("pass surfaced %d distinct pages, want %d", len(surfaced), n)
	}
	for idx, times := range surfaced {
		if times != 1 {
			t.Fatalf("page %d surfaced %d times: shared I/O must be charged once per pass", idx, times)
		}
	}
	st := c.Stats()
	if st.PagesSurfaced != int64(n) {
		t.Fatalf("PagesSurfaced = %d, want %d", st.PagesSurfaced, n)
	}
	if st.PagesDelivered != int64(n*consumers) {
		t.Fatalf("PagesDelivered = %d, want %d", st.PagesDelivered, n*consumers)
	}
	for i, k := range ks {
		if k.PagesSeen() != int64(n) {
			t.Fatalf("consumer %d saw %d pages, want %d", i, k.PagesSeen(), n)
		}
	}
}

// A consumer attaching while the pass sits on its LAST page must still see
// every page exactly once: the last page first, then the wrap-around lap
// over all the others.
func TestAttachOnLastPageSeesEveryPageOnce(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	if n < 3 {
		t.Fatalf("need ≥3 pages, got %d", n)
	}
	c := NewCoordinator(h, "t", nil)

	// Drive an earlier consumer until the pass sits on page n-1.
	first := c.Attach()
	for i := 0; i < n-1; i++ {
		if _, _, _, ok := first.Next(nil); !ok {
			t.Fatalf("first consumer ended after %d pages", i)
		}
	}
	if c.Pos() != n-1 {
		t.Fatalf("pass position = %d, want %d", c.Pos(), n-1)
	}

	late := c.Attach()
	if late.Entry() != n-1 {
		t.Fatalf("late entry = %d, want %d", late.Entry(), n-1)
	}
	got := drain(late, nil)
	if len(got) != n {
		t.Fatalf("late consumer saw %d pages, want %d", len(got), n)
	}
	seen := make(map[int]bool)
	for i, idx := range got {
		if want := (n - 1 + i) % n; idx != want {
			t.Fatalf("late consumer page %d arrived as %d, want %d (wrap order)", i, idx, want)
		}
		if seen[idx] {
			t.Fatalf("late consumer saw page %d twice", idx)
		}
		seen[idx] = true
	}
	// The earlier consumer finishes its own lap undisturbed.
	if rest := drain(first, nil); len(rest) != 1 || rest[0] != n-1 {
		t.Fatalf("first consumer's final pages = %v, want [%d]", rest, n-1)
	}
	first.Close()
	late.Close()
}

func TestEmptyHeapConsumerIsBornDone(t *testing.T) {
	c := NewCoordinator(storage.NewHeap(0), "empty", nil)
	k := c.Attach()
	fired := false
	if _, _, _, ok := k.Next(func(int, int64) { fired = true }); ok {
		t.Fatal("empty heap delivered a page")
	}
	if fired {
		t.Fatal("empty heap fired the surface hook")
	}
	if k.PagesSeen() != 0 {
		t.Fatalf("PagesSeen = %d, want 0", k.PagesSeen())
	}
	k.Close()
}

func TestSinglePageHeapOnePagePerConsumer(t *testing.T) {
	h := heapOf(t, 3)
	if h.NumPages() != 1 {
		t.Fatalf("want single-page heap, got %d pages", h.NumPages())
	}
	c := NewCoordinator(h, "tiny", nil)
	a, b := c.Attach(), c.Attach()
	if got := drain(a, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("consumer a pages = %v, want [0]", got)
	}
	if got := drain(b, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("consumer b pages = %v, want [0]", got)
	}
	// Two separate passes over the single page: late consumer c attaches
	// after the wrap and still gets it exactly once.
	k := c.Attach()
	if got := drain(k, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("consumer c pages = %v, want [0]", got)
	}
}

// A consumer that never pulls still receives every page (buffered) while a
// busy consumer drives the pass; its own later pulls are then free of
// shared charges.
func TestIdleConsumerIsServedFromBuffer(t *testing.T) {
	h := heapOf(t, 300)
	n := h.NumPages()
	c := NewCoordinator(h, "t", nil)
	idle := c.Attach()
	busy := c.Attach()

	var surfacedByBusy int
	drain(busy, func(int, int64) { surfacedByBusy++ })
	if surfacedByBusy != n {
		t.Fatalf("busy consumer surfaced %d pages, want %d", surfacedByBusy, n)
	}
	var surfacedByIdle int
	got := drain(idle, func(int, int64) { surfacedByIdle++ })
	if surfacedByIdle != 0 {
		t.Fatalf("idle consumer surfaced %d pages, want 0 (all buffered)", surfacedByIdle)
	}
	if len(got) != n {
		t.Fatalf("idle consumer saw %d pages, want %d", len(got), n)
	}
}

// The pass keeps its position between consumers: after a partial drive, a
// new attach enters mid-lap (the elevator behaviour).
func TestPassPositionPersistsAcrossConsumers(t *testing.T) {
	h := heapOf(t, 300)
	n := h.NumPages()
	if n < 4 {
		t.Fatalf("need ≥4 pages, got %d", n)
	}
	c := NewCoordinator(h, "t", nil)
	a := c.Attach()
	for i := 0; i < 3; i++ {
		a.Next(nil)
	}
	b := c.Attach()
	if b.Entry() != 3 {
		t.Fatalf("second consumer entered at %d, want 3", b.Entry())
	}
	if got := drain(b, nil); len(got) != n || got[0] != 3 {
		t.Fatalf("second consumer saw %d pages starting at %v, want %d starting at 3",
			len(got), got[:1], n)
	}
	drain(a, nil)
	a.Close()
	b.Close()
}

func TestCloseIsIdempotentAndNextAfterClosePanics(t *testing.T) {
	c := NewCoordinator(heapOf(t, 10), "t", nil)
	k := c.Attach()
	k.Close()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Next on a closed consumer should panic")
		}
	}()
	k.Next(nil)
}

func TestCoordinatorPoolChargedOncePerPass(t *testing.T) {
	h := heapOf(t, 400)
	n := h.NumPages()
	pool := storage.NewBufferPool(1<<30, readerStub{})
	c := NewCoordinator(h, "li", pool)
	ks := []*Consumer{c.Attach(), c.Attach(), c.Attach()}
	for _, k := range ks {
		drain(k, nil)
		k.Close()
	}
	st := pool.Stats()
	if st.Hits+st.Misses != int64(n) {
		t.Fatalf("pool touched %d times for 3 consumers, want one pass (%d)", st.Hits+st.Misses, n)
	}
}

type readerStub struct{}

func (readerStub) BlockingRead(int64, bool) {}

// One full wrap-around lap publishes its stats delta: Passes and LastPass
// read after each lap see per-lap numbers, not lifetime totals.
func TestLapAccountingAndListener(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	c := NewCoordinator(h, "t", nil)

	a := c.Attach()
	drain(a, nil)
	a.Close()
	if c.Passes() != 1 {
		t.Fatalf("Passes() = %d after one drained consumer, want 1", c.Passes())
	}
	lp := c.LastPass()
	if lp.PagesSurfaced != int64(n) || lp.PagesDelivered != int64(n) || lp.Attaches != 1 {
		t.Fatalf("first lap delta = %+v, want %d surfaced, %d delivered, 1 attach", lp, n, n)
	}

	// Second lap, two consumers: the delta restarts — it must not carry
	// the first lap's counts.
	b1, b2 := c.Attach(), c.Attach()
	done := 0
	for done < 2 {
		done = 0
		for _, k := range []*Consumer{b1, b2} {
			if _, _, _, ok := k.Next(nil); !ok {
				done++
			}
		}
	}
	if c.Passes() != 2 {
		t.Fatalf("Passes() = %d, want 2", c.Passes())
	}
	lp = c.LastPass()
	if lp.PagesSurfaced != int64(n) || lp.PagesDelivered != int64(2*n) || lp.Attaches != 2 {
		t.Fatalf("second lap delta = %+v, want %d surfaced, %d delivered, 2 attaches", lp, n, 2*n)
	}
	b1.Close()
	b2.Close()
}

// The pass's cursor wraps from wherever it stands: a consumer attaching at
// any page sees every page once, in wrap order, and a full lap leaves the
// cursor back at its entry page.
func TestPassWrapsFromAnyStart(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	if n < 3 {
		t.Fatalf("need ≥3 pages, got %d", n)
	}
	for _, start := range []int{0, 1, n / 2, n - 1} {
		c := NewCoordinator(h, "t", nil)
		lead := c.Attach()
		for i := 0; i < start; i++ {
			lead.Next(nil)
		}
		lead.Close()
		k := c.Attach()
		if k.Entry() != start || c.Pos() != start {
			t.Fatalf("start %d: entry %d, Pos %d", start, k.Entry(), c.Pos())
		}
		for i := 0; i < n; i++ {
			idx, page, _, ok := k.Next(nil)
			if want := (start + i) % n; !ok || idx != want || page != h.Page(want) {
				t.Fatalf("start %d: step %d surfaced page %d (ok %v), want %d", start, i, idx, ok, want)
			}
		}
		if _, _, _, ok := k.Next(nil); ok {
			t.Fatalf("start %d: consumer went past one lap", start)
		}
		if c.Pos() != start {
			t.Fatalf("start %d: after a full lap Pos = %d", start, c.Pos())
		}
	}
}

func TestPassOverEmptyHeap(t *testing.T) {
	c := NewCoordinator(storage.NewHeap(0), "t", nil)
	k := c.Attach()
	if _, _, _, ok := k.Next(nil); ok {
		t.Fatal("empty heap surfaced a page")
	}
	if c.Pos() != 0 || c.Stats() != (PassStats{Attaches: 1}) || c.Passes() != 0 {
		t.Fatalf("empty pass moved: Pos %d, stats %+v, passes %d", c.Pos(), c.Stats(), c.Passes())
	}
}

// Over one page the pass surfaces the same page lap after lap, one lap per
// consumer in turn.
func TestPassOverSinglePageRepeats(t *testing.T) {
	h := heapOf(t, 3) // all rows fit one page
	if h.NumPages() != 1 {
		t.Fatalf("want a single-page heap, got %d pages", h.NumPages())
	}
	c := NewCoordinator(h, "t", nil)
	for lap := 0; lap < 4; lap++ {
		k := c.Attach()
		if idx, _, _, ok := k.Next(nil); !ok || idx != 0 {
			t.Fatalf("lap %d: idx=%d ok=%v, want 0 true", lap, idx, ok)
		}
		k.Close()
	}
	if c.Passes() != 4 || c.Stats().PagesSurfaced != 4 {
		t.Fatalf("passes %d, surfaced %d, want 4 each", c.Passes(), c.Stats().PagesSurfaced)
	}
}

// Each lap touches the pool once per page: the first misses every page,
// the second hits every page.
func TestPassTouchesPoolOncePerLap(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	pool := storage.NewBufferPool(1<<20, readerStub{})
	c := NewCoordinator(h, "li", pool)
	for lap := 0; lap < 2; lap++ {
		k := c.Attach()
		drain(k, nil)
		k.Close()
	}
	st := pool.Stats()
	if st.Misses != int64(n) || st.Hits != int64(n) {
		t.Fatalf("two laps: %d misses and %d hits, want %d each", st.Misses, st.Hits, n)
	}
}

// A page every needy consumer prunes is skipped physically and counts
// ONCE per pass step in the coordinator's (and registry's) pruned total —
// not once per consumer. Each consumer still records its own pruned steps
// as per-query detail.
func TestFullyPrunedPageCountsOncePerPass(t *testing.T) {
	h := heapOf(t, 500)
	n := h.NumPages()
	c := NewCoordinator(h, "t", nil)
	pruneAll := func([]expr.Zone) bool { return true }
	g0 := obsv.PagesPruned.Load()

	a := c.AttachPruned(pruneAll)
	b := c.AttachPruned(pruneAll)
	surface := func(int, int64) { t.Fatal("fully pruned pass surfaced a page") }
	done := 0
	for done < 2 {
		done = 0
		for _, k := range []*Consumer{a, b} {
			if _, _, pruned, ok := k.Next(surface); ok && !pruned {
				t.Fatal("prune-everything consumer received a data page")
			} else if !ok {
				done++
			}
		}
	}
	st := c.Stats()
	if st.PagesPruned != int64(n) {
		t.Fatalf("coordinator PagesPruned = %d for 2 consumers, want %d (once per pass step)",
			st.PagesPruned, n)
	}
	if st.PagesSurfaced != 0 {
		t.Fatalf("PagesSurfaced = %d, want 0", st.PagesSurfaced)
	}
	if a.PagesPruned() != int64(n) || b.PagesPruned() != int64(n) {
		t.Fatalf("per-consumer pruned = %d/%d, want %d each (query detail preserved)",
			a.PagesPruned(), b.PagesPruned(), n)
	}
	if got := obsv.PagesPruned.Load() - g0; got != int64(n) {
		t.Fatalf("registry exec_pages_pruned_total delta = %d, want %d", got, n)
	}
	if c.Passes() != 1 || c.LastPass().PagesPruned != int64(n) {
		t.Fatalf("lap accounting over a pruned pass: passes=%d lastPass=%+v",
			c.Passes(), c.LastPass())
	}
	a.Close()
	b.Close()
}
