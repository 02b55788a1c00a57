package storage

import (
	"container/list"
	"fmt"

	"ecodb/internal/obsv"
)

// PageID identifies one page of one table.
type PageID struct {
	Table string
	Index int
}

// DiskReader performs a blocking read of n bytes; sequential reports
// whether the access continues the previous transfer. The engine wires
// this to the simulated machine (disk service time + CPU idle wait).
type DiskReader interface {
	BlockingRead(n int64, sequential bool)
}

// PoolStats counts buffer pool traffic.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	BytesIn   int64
}

// BufferPool is a byte-budgeted LRU cache of table pages backed by a
// simulated disk. Access charges a disk read on a miss; consecutive-index
// misses on the same table read sequentially (the drive's streaming path),
// everything else seeks.
type BufferPool struct {
	capacity int64
	used     int64
	reader   DiskReader

	lru    *list.List            // front = most recent; values are *entry
	tables map[string]*residents // by table name
	cached *residents            // the table looked up last

	last      *residents // the table of the last page actually read from disk; nil before any
	lastIndex int        // that page's index
	stats     PoolStats
}

// residents indexes one table's resident pages by page index: a scan
// touches a table's pages in runs, so a dense slice beats hashing a PageID
// per page.
type residents struct {
	table string
	pages []*list.Element // nil where the page is not resident
}

// get returns page i's LRU element, nil when it is not resident.
func (r *residents) get(i int) *list.Element {
	if i < len(r.pages) {
		return r.pages[i]
	}
	return nil
}

// set records page i's LRU element (nil: not resident).
func (r *residents) set(i int, el *list.Element) {
	if i >= len(r.pages) {
		r.pages = append(r.pages, make([]*list.Element, i+1-len(r.pages))...)
	}
	r.pages[i] = el
}

type entry struct {
	table *residents
	index int
	bytes int64
}

// NewBufferPool returns a pool holding at most capacity bytes, reading
// misses through reader. It panics on a non-positive capacity or nil
// reader; use a resident (memory-engine) table configuration instead of a
// degenerate pool.
func NewBufferPool(capacity int64, reader DiskReader) *BufferPool {
	if capacity <= 0 {
		panic("storage: buffer pool capacity must be positive")
	}
	if reader == nil {
		panic("storage: buffer pool needs a disk reader")
	}
	return &BufferPool{
		capacity: capacity,
		reader:   reader,
		lru:      list.New(),
		tables:   make(map[string]*residents),
	}
}

// Capacity returns the pool's byte budget.
func (bp *BufferPool) Capacity() int64 { return bp.capacity }

// Used returns the bytes currently resident.
func (bp *BufferPool) Used() int64 { return bp.used }

// Stats returns traffic counters.
func (bp *BufferPool) Stats() PoolStats { return bp.stats }

// ResetStats zeroes the traffic counters.
func (bp *BufferPool) ResetStats() { bp.stats = PoolStats{} }

// residentsOf returns the index of table's resident pages, creating an
// empty one for a table the pool has not seen. The table used last is
// answered without hashing its name.
func (bp *BufferPool) residentsOf(table string) *residents {
	if r := bp.cached; r != nil && r.table == table {
		return r
	}
	r := bp.tables[table]
	if r == nil {
		r = &residents{table: table}
		bp.tables[table] = r
	}
	bp.cached = r
	return r
}

// Access touches a page, reading it from disk if absent and evicting LRU
// pages to fit. Pages larger than the whole pool still stream through (one
// read, immediately evicted).
func (bp *BufferPool) Access(id PageID, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("storage: negative page size for %v", id))
	}
	obsv.PoolReads.Inc()
	r := bp.residentsOf(id.Table)
	if el := r.get(id.Index); el != nil {
		bp.lru.MoveToFront(el)
		bp.stats.Hits++
		return
	}
	bp.stats.Misses++
	bp.stats.BytesIn += bytes
	obsv.PoolMisses.Inc()

	sequential := bp.last == r && id.Index == bp.lastIndex+1
	bp.reader.BlockingRead(bytes, sequential)
	bp.last, bp.lastIndex = r, id.Index
	bp.admit(r, id.Index, bytes)
}

// admit makes page index of r resident as the most recent page, evicting
// LRU pages to fit; a page larger than the whole pool is not kept.
func (bp *BufferPool) admit(r *residents, index int, bytes int64) {
	for bp.used+bytes > bp.capacity && bp.lru.Len() > 0 {
		e := bp.lru.Remove(bp.lru.Back()).(*entry)
		e.table.set(e.index, nil)
		bp.used -= e.bytes
		bp.stats.Evictions++
	}
	if bytes <= bp.capacity {
		r.set(index, bp.lru.PushFront(&entry{table: r, index: index, bytes: bytes}))
		bp.used += bytes
	}
}

// Contains reports whether a page is resident.
func (bp *BufferPool) Contains(id PageID) bool {
	return bp.residentsOf(id.Table).get(id.Index) != nil
}

// Warm marks a table's pages resident without charging disk reads, the
// state after the warm-up runs the paper performs before measuring.
// Warming more bytes than capacity keeps only the most recently warmed
// pages, like a real scan-through would.
func (bp *BufferPool) Warm(table string, heap *Heap) {
	r := bp.residentsOf(table)
	for i := 0; i < heap.NumPages(); i++ {
		if el := r.get(i); el != nil {
			bp.lru.MoveToFront(el)
			continue
		}
		bp.admit(r, i, heap.Page(i).Bytes)
	}
}

// InvalidateAll empties the pool — a cold start, as after the paper's
// system reboot in §3.5.
func (bp *BufferPool) InvalidateAll() {
	bp.lru.Init()
	bp.tables = make(map[string]*residents)
	bp.cached, bp.last = nil, nil
	bp.used = 0
}
