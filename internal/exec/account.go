package exec

import (
	"sync"
	"unsafe"

	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Account is one statement's hold on every buffer that outlives the call
// that took it, and the only code that ends such a buffer's life: the state
// blocking operators hold past one page, and the answer a consumer gathers.
// A statement has two: its operators' (Ctx.Mem), released once the operator
// tree is closed (engine.Rows.finish), and its answer's, released once the
// consumer has read it (engine.Rows.Release). Release hands each lease back
// to its role's pool, poisoned under the ecodbpoison tag; what is never
// released is left to the collector. Page records take the record role's
// pool lock-free and go back at their pump's close. Producers lease
// concurrently with the coordinator, so the lists are guarded. The zero
// value is ready to use.
type Account struct {
	mu    sync.Mutex
	l     *leases // nil until the first lease; pooled with the release
	pumps int     // pumps open; counted only when poisoning
}

// leases are an account's lists, pooled so a warm statement allocates none.
type leases struct {
	held []lease
	// free holds merged partials, leased still, for the producers' next
	// runs: a statement leases as many partials as its windows hold runs.
	free []*aggTable
}

var leaseLists = sync.Pool{New: func() any { return new(leases) }}

// lease is one lease and the pool it goes back to.
type lease struct {
	to interface{ putAny(any) }
	x  any
}

func (p *leasePool[T]) putAny(x any) { p.put(x.(*T)) }

// role is what a lease is for. Each role has one pool and one bound in
// maxPooledBytes, past which a lease goes to the collector instead.
type role int

const (
	roleOut    role = iota // an operator's output batch: one batch of rows
	roleAnswer             // an answer a consumer gathers
	roleBuild              // a join's build side and table
	roleTable              // a global table or run partial
	roleRun                // a sorted run
	roleRecord             // a pump's page record: one page of rows
)

var maxPooledBytes = [...]int{roleOut: 256 << 10, roleAnswer: 1 << 20, roleBuild: 1 << 20, roleTable: 1 << 20, roleRun: 1 << 20, roleRecord: 256 << 10}

// leasePool is the process-wide pool of one role's leases, on shelves by
// shape (a batch's width, a table's aggregate count): a lease keeps what
// its largest input grew, so a shelf mostly serves one operator of one
// statement shape, whose next statement needs the same.
type leasePool[T any] struct {
	role    role
	bytes   func(*T) int // the capacity a lease holds
	shape   func(*T) int // the shelf a lease goes back to
	poison  func(*T)     // overwrites what a lease holds, when poisoning
	shelves [leaseShelves]sync.Pool
}

const leaseShelves = 32 // shapes a pool tells apart; larger ones share the last

var (
	outBatches = leasePool[expr.Batch]{role: roleOut, bytes: (*expr.Batch).CapBytes, shape: (*expr.Batch).Width, poison: (*expr.Batch).Poison}
	answers    = leasePool[expr.Batch]{role: roleAnswer, bytes: (*expr.Batch).CapBytes, shape: (*expr.Batch).Width, poison: (*expr.Batch).Poison}
	joinBuilds = leasePool[joinBuild]{role: roleBuild, bytes: (*joinBuild).capBytes, shape: func(b *joinBuild) int { return b.rows.Width() }, poison: (*joinBuild).poison}
	aggTables  = leasePool[aggTable]{role: roleTable, bytes: (*aggTable).capBytes, shape: (*aggTable).class, poison: (*aggTable).poison}
	sortedRuns = leasePool[sortedRun]{role: roleRun, bytes: (*sortedRun).capBytes, shape: func(r *sortedRun) int { return r.buf.Width() }, poison: (*sortedRun).poison}
	records    = leasePool[morselResult]{role: roleRecord, bytes: (*morselResult).capBytes, shape: func(*morselResult) int { return 0 }, poison: (*morselResult).poison}
)

// get returns a lease of the given shape from its shelf, or a new one.
func (p *leasePool[T]) get(shape int) *T {
	if x, _ := p.shelves[min(shape, leaseShelves-1)].Get().(*T); x != nil {
		return x
	}
	return new(T)
}

// put hands x back to its shelf, poisoned first when poisoning; past its
// role's bound it goes to the collector.
func (p *leasePool[T]) put(x *T) {
	if poisoning {
		p.poison(x)
	}
	if p.bytes(x) <= maxPooledBytes[p.role] {
		p.shelves[min(p.shape(x), leaseShelves-1)].Put(x)
	}
}

// take leases one of p's leases of the given shape on a's account.
func take[T any](a *Account, p *leasePool[T], shape int) *T {
	x := p.get(shape)
	a.mu.Lock()
	if a.l == nil {
		a.l = leaseLists.Get().(*leases)
	}
	a.l.held = append(a.l.held, lease{p, x})
	a.mu.Unlock()
	return x
}

// batch leases an empty output batch width columns wide.
func (a *Account) batch(width int) *expr.Batch {
	return emptyBatch(take(a, &outBatches, width), width)
}

// Answer leases an empty batch width columns wide for a consumer to gather
// an answer into.
func (a *Account) Answer(width int) *expr.Batch {
	return emptyBatch(take(a, &answers, width), width)
}

// joinBuild is a hash join's build side, in arrival order, and the table
// over its key column: leased together, so a table goes back to the shelf
// of the build it indexed.
type joinBuild struct {
	rows  expr.Batch
	table expr.JoinTable
}

// joinBuild leases an empty build side width columns wide, with its table.
func (a *Account) joinBuild(width int) *joinBuild {
	b := take(a, &joinBuilds, width)
	emptyBatch(&b.rows, width)
	return b
}

func emptyBatch(b *expr.Batch, width int) *expr.Batch {
	b.SetWidth(width)
	b.Reset()
	return b
}

// aggTable leases an empty group table for groupBy and aggs.
func (a *Account) aggTable(groupBy []int, aggs []plan.AggSpec, deferSums bool) *aggTable {
	t := take(a, &aggTables, tableClass(groupBy, aggs, deferSums))
	t.shape(groupBy, aggs, deferSums)
	return t
}

// partial leases an empty run partial for groupBy and aggs: one this
// statement has merged already if any, else a fresh one from the pool,
// whose row vectors are not yet sized for the statement's runs.
func (a *Account) partial(groupBy []int, aggs []plan.AggSpec) (t *aggTable, fresh bool) {
	a.mu.Lock()
	if l := a.l; l != nil && len(l.free) > 0 {
		t, l.free = l.free[len(l.free)-1], l.free[:len(l.free)-1]
	}
	a.mu.Unlock()
	if t == nil {
		t, fresh = take(a, &aggTables, tableClass(groupBy, aggs, true)), true
	}
	t.shape(groupBy, aggs, true)
	return t, fresh
}

// merged gives back a partial the coordinator has merged, for a producer's
// next run. It stays leased until Release.
func (a *Account) merged(t *aggTable) {
	a.mu.Lock()
	a.l.free = append(a.l.free, t)
	a.mu.Unlock()
}

// sortedRun leases an empty sorted run.
func (a *Account) sortedRun(keys []plan.SortKey, limit, width int) *sortedRun {
	r := take(a, &sortedRuns, width)
	r.shape(keys, limit, width)
	return r
}

// Release hands every lease back to its pool, and the lists with them. The
// operator tree must be closed, and nothing it or Answer handed out is read
// after. The account may lease again afterwards.
func (a *Account) Release() {
	if poisoning && a.pumps > 0 {
		panic("exec: Release with a pump open: its producers may still write into leased state")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.l
	if l == nil {
		return
	}
	for _, h := range l.held {
		h.to.putAny(h.x)
	}
	clear(l.held)
	clear(l.free)
	l.held, l.free, a.l = l.held[:0], l.free[:0], nil
	leaseLists.Put(l)
}

// release hands a chain of records linked through next back to the record
// pool, dropping what they point into and keeping their buffers.
func (res *morselResult) release() {
	for res != nil {
		next := res.next
		res.reset()
		records.put(res)
		res = next
	}
}

// capBytes is the capacity res keeps from page to page.
func (res *morselResult) capBytes() int {
	n := int(unsafe.Sizeof(expr.Cost{})) * cap(res.meters)
	if ws := res.own; ws != nil {
		n += 4 * cap(ws.sel)
		for _, b := range ws.proj {
			n += b.CapBytes()
		}
	}
	if ps := res.ps; ps != nil {
		n += 4 * (cap(ps.buildIdx) + cap(ps.probeIdx))
	}
	return n
}

// poison overwrites res's selection, projection vectors and match pairs.
func (res *morselResult) poison() {
	if ws := res.own; ws != nil {
		expr.PoisonIDs(ws.sel)
		for _, b := range ws.proj {
			b.Poison()
		}
	}
	if ps := res.ps; ps != nil {
		expr.PoisonIDs(ps.buildIdx)
		expr.PoisonIDs(ps.probeIdx)
	}
}

func (b *joinBuild) capBytes() int { return b.rows.CapBytes() + b.table.CapBytes() }

func (b *joinBuild) poison() {
	b.rows.Poison()
	b.table.Poison()
}

// tableClass is the shelf of a table for groupBy and aggs: run partials
// apart from global tables, by column count.
func tableClass(groupBy []int, aggs []plan.AggSpec, deferSums bool) int {
	c := 2 * (len(groupBy) + len(aggs))
	if deferSums {
		c++
	}
	return c
}

func (t *aggTable) class() int { return tableClass(t.groupBy, t.aggs, t.deferSums) }

// capBytes is the capacity t holds, in every buffer it keeps.
func (t *aggTable) capBytes() int {
	n := t.vals.CapBytes() + t.index.CapBytes() + 8*cap(t.rows) + 4*(cap(t.rowGid)+cap(t.gid)) + 8*cap(t.floats)
	for _, acc := range t.accs[:cap(t.accs)] {
		n += 8*(cap(acc.nulls)+cap(acc.sums)) + int(unsafe.Sizeof(expr.Value{}))*cap(acc.ext)
	}
	for _, v := range t.rowVals[:cap(t.rowVals)] {
		n += 8 * cap(v)
	}
	for _, v := range t.argVecs[:cap(t.argVecs)] {
		if v != nil {
			n += v.CapBytes()
		}
	}
	return n
}

// poison overwrites t's groups, accumulators, row values and scratch.
func (t *aggTable) poison() {
	t.vals.Poison()
	t.index.Poison()
	expr.PoisonInts(t.rows)
	expr.PoisonIDs(t.rowGid)
	expr.PoisonIDs(t.gid)
	expr.PoisonFloats(t.floats)
	for i := range t.accs {
		acc := &t.accs[i]
		expr.PoisonInts(acc.nulls)
		expr.PoisonFloats(acc.sums)
		for g := range acc.ext {
			acc.ext[g] = expr.Float(expr.PoisonFloat)
		}
	}
	for _, v := range t.rowVals {
		expr.PoisonFloats(v)
	}
	for _, v := range t.argVecs {
		if v != nil {
			v.Poison()
		}
	}
}

// capBytes is the capacity r holds, in every buffer it keeps.
func (r *sortedRun) capBytes() int {
	return r.buf.CapBytes() + r.spare.CapBytes() + 8*(cap(r.ord)+cap(r.ords)) + 4*(cap(r.perm)+cap(r.keep))
}

// poison overwrites r's rows, ordinals and permutation and drops its keys.
func (r *sortedRun) poison() {
	r.buf.Poison()
	r.spare.Poison()
	expr.PoisonInts(r.ord)
	expr.PoisonInts(r.ords)
	expr.PoisonIDs(r.perm)
	expr.PoisonIDs(r.keep)
	r.keys, r.bound = nil, nil
}
