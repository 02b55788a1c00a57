package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"ecodb/internal/expr"
)

func intRow(v int64) expr.Row { return expr.Row{expr.Int(v)} }

func TestHeapAppendAndPaging(t *testing.T) {
	h := NewHeap(64) // tiny pages: 12-byte rows → 5 per page
	for i := int64(0); i < 23; i++ {
		h.Append(intRow(i))
	}
	if h.NumRows() != 23 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	// Every row present, in order.
	var seen int64
	for p := 0; p < h.NumPages(); p++ {
		for _, row := range h.Page(p).Rows() {
			if row[0].I != seen {
				t.Fatalf("row %d out of order: got %d", seen, row[0].I)
			}
			seen++
		}
	}
	if seen != 23 {
		t.Fatalf("iterated %d rows", seen)
	}
}

func TestHeapDefaultPageSize(t *testing.T) {
	h := NewHeap(0)
	if h.PageTarget() != DefaultPageBytes {
		t.Fatalf("default page target = %d", h.PageTarget())
	}
}

func TestHeapPageOutOfRangePanics(t *testing.T) {
	h := NewHeap(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Page(0) on empty heap did not panic")
		}
	}()
	h.Page(0)
}

func TestHeapBytesTracksRows(t *testing.T) {
	h := NewHeap(0)
	h.Append(intRow(1))
	want := intRow(1).Bytes()
	if h.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", h.Bytes(), want)
	}
}

// fakeReader records reads for buffer pool tests.
type fakeReader struct {
	reads []struct {
		n   int64
		seq bool
	}
}

func (f *fakeReader) BlockingRead(n int64, sequential bool) {
	f.reads = append(f.reads, struct {
		n   int64
		seq bool
	}{n, sequential})
}

func TestBufferPoolMissThenHit(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(1<<20, r)
	id := PageID{Table: "t", Index: 0}
	bp.Access(id, 100)
	bp.Access(id, 100)
	st := bp.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(r.reads) != 1 {
		t.Fatalf("disk reads = %d, want 1", len(r.reads))
	}
}

func TestBufferPoolSequentialDetection(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(1<<20, r)
	for i := 0; i < 4; i++ {
		bp.Access(PageID{Table: "t", Index: i}, 100)
	}
	// First read seeks; the rest stream.
	if r.reads[0].seq {
		t.Fatal("first read should be random")
	}
	for i := 1; i < 4; i++ {
		if !r.reads[i].seq {
			t.Fatalf("read %d should be sequential", i)
		}
	}
	// A different table breaks the run.
	bp.Access(PageID{Table: "u", Index: 4}, 100)
	if r.reads[4].seq {
		t.Fatal("table switch should seek")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(250, r)
	for i := 0; i < 3; i++ {
		bp.Access(PageID{Table: "t", Index: i}, 100)
	}
	// Capacity 250 with 100-byte pages: page 0 must have been evicted.
	if bp.Contains(PageID{Table: "t", Index: 0}) {
		t.Fatal("LRU page not evicted")
	}
	if !bp.Contains(PageID{Table: "t", Index: 2}) {
		t.Fatal("most recent page missing")
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
	if bp.Used() > bp.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", bp.Used(), bp.Capacity())
	}
}

func TestBufferPoolLRUOrderRespectsAccess(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(250, r)
	bp.Access(PageID{Table: "t", Index: 0}, 100)
	bp.Access(PageID{Table: "t", Index: 1}, 100)
	bp.Access(PageID{Table: "t", Index: 0}, 100) // touch 0 again
	bp.Access(PageID{Table: "t", Index: 2}, 100) // evicts 1, not 0
	if !bp.Contains(PageID{Table: "t", Index: 0}) {
		t.Fatal("recently touched page evicted")
	}
	if bp.Contains(PageID{Table: "t", Index: 1}) {
		t.Fatal("least recently used page kept")
	}
}

func TestBufferPoolOversizedPageStreamsThrough(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(100, r)
	bp.Access(PageID{Table: "t", Index: 0}, 1000)
	if bp.Contains(PageID{Table: "t", Index: 0}) {
		t.Fatal("page larger than pool must not be cached")
	}
	if bp.Used() != 0 {
		t.Fatalf("used = %d", bp.Used())
	}
}

func TestBufferPoolWarm(t *testing.T) {
	h := NewHeap(64)
	for i := int64(0); i < 40; i++ {
		h.Append(intRow(i))
	}
	r := &fakeReader{}
	bp := NewBufferPool(1<<20, r)
	bp.Warm("t", h)
	if len(r.reads) != 0 {
		t.Fatal("Warm must not touch the disk")
	}
	for i := 0; i < h.NumPages(); i++ {
		bp.Access(PageID{Table: "t", Index: i}, h.Page(i).Bytes)
	}
	if bp.Stats().Misses != 0 {
		t.Fatalf("misses after warm = %d", bp.Stats().Misses)
	}
}

func TestBufferPoolInvalidateAll(t *testing.T) {
	r := &fakeReader{}
	bp := NewBufferPool(1<<20, r)
	id := PageID{Table: "t", Index: 0}
	bp.Access(id, 100)
	bp.InvalidateAll()
	if bp.Contains(id) || bp.Used() != 0 {
		t.Fatal("InvalidateAll left residue")
	}
	bp.Access(id, 100)
	if bp.Stats().Misses != 2 {
		t.Fatalf("misses = %d, want 2", bp.Stats().Misses)
	}
	// After invalidation the first re-read must seek again.
	if r.reads[1].seq {
		t.Fatal("post-invalidate read should be random")
	}
}

func TestBufferPoolConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero capacity", func() { NewBufferPool(0, &fakeReader{}) })
	mustPanic("nil reader", func() { NewBufferPool(1, nil) })
}

// Property: used bytes never exceed capacity and all resident pages are
// tracked, under arbitrary access sequences.
func TestBufferPoolInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		bp := NewBufferPool(1000, &fakeReader{})
		for _, op := range ops {
			idx := int(op % 37)
			size := int64(op%13)*20 + 10
			bp.Access(PageID{Table: fmt.Sprint(op % 3), Index: idx}, size)
			if bp.Used() > bp.Capacity() {
				return false
			}
		}
		st := bp.Stats()
		return st.Hits+st.Misses == int64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMorselSourceHandsOutEveryPageOnce(t *testing.T) {
	h := NewHeap(256)
	for i := 0; i < 2000; i++ {
		h.Append(expr.Row{expr.Int(int64(i))})
	}
	src := NewMorselSource(h)
	if src.NumMorsels() != h.NumPages() {
		t.Fatalf("NumMorsels = %d, want %d", src.NumMorsels(), h.NumPages())
	}

	var mu sync.Mutex
	claimed := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				run, ok := src.NextRun()
				if !ok {
					return
				}
				for idx := run.Start; idx < run.End; idx++ {
					if src.Page(idx) != h.Page(idx) {
						t.Errorf("morsel %d handed the wrong page", idx)
						return
					}
					mu.Lock()
					claimed[idx]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(claimed) != h.NumPages() {
		t.Fatalf("workers claimed %d distinct pages, want %d", len(claimed), h.NumPages())
	}
	for idx, n := range claimed {
		if n != 1 {
			t.Fatalf("page %d handed out %d times", idx, n)
		}
	}
}

// The NUMA-affinity contract: every handout is a run of exactly
// DefaultMorselRunLength adjacent pages (the tail run is shorter when the
// page count is not a multiple of it), runs are claimed in ascending order,
// and together they tile the heap.
func TestMorselSourceRunLengthContiguous(t *testing.T) {
	// Three runs and half of a fourth.
	h := NewHeap(256)
	for i := 0; h.NumPages() < 3*DefaultMorselRunLength+DefaultMorselRunLength/2; i++ {
		h.Append(expr.Row{expr.Int(int64(i))})
	}
	n := h.NumPages()
	src := NewMorselSource(h)
	next := 0
	for i := 0; ; i++ {
		run, ok := src.NextRun()
		if !ok {
			break
		}
		if run.Start != next {
			t.Fatalf("run %d starts at %d, want %d (runs must tile the heap in order)", i, run.Start, next)
		}
		if got, want := run.End-run.Start, min(DefaultMorselRunLength, n-run.Start); got != want {
			t.Fatalf("run %d covers %d pages, want %d", i, got, want)
		}
		next = run.End
	}
	if next != n {
		t.Fatalf("runs end at page %d, want %d", next, n)
	}
}

func TestMorselSourceEmptyHeap(t *testing.T) {
	src := NewMorselSource(NewHeap(0))
	if _, ok := src.NextRun(); ok {
		t.Fatal("empty heap handed out a run")
	}
}

// A source's positions start at its entry page and wrap: one lap covers
// every page once, and the runs tile the lap as they tile a heap from 0.
func TestMorselSourceWrapsFromEntry(t *testing.T) {
	h := NewHeap(256)
	for i := 0; i < 500; i++ {
		h.Append(expr.Row{expr.Int(int64(i))})
	}
	n := h.NumPages()
	for _, entry := range []int{0, 1, n - 1, n, n + 2, -1} {
		src := NewMorselSourceFrom(h, entry)
		first := (entry%n + n) % n
		pos := 0
		for run, ok := src.NextRun(); ok; run, ok = src.NextRun() {
			for ; pos < run.End; pos++ {
				if want := (first + pos) % n; src.Index(pos) != want || src.Page(pos) != h.Page(want) {
					t.Fatalf("entry %d: position %d is page %d, want %d", entry, pos, src.Index(pos), want)
				}
			}
		}
		if pos != n {
			t.Fatalf("entry %d: runs covered %d positions, want %d", entry, pos, n)
		}
	}
}
