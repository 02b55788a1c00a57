package exec

import (
	"sync"
	"unsafe"

	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Account is one statement's lease on the state its blocking operators
// hold past one page: a hash join's build side and join table, an
// aggregation's global table and run partials, a sort's sorted runs, and
// the output batches those operators and a limit fill. Operators lease
// them as they open, and their producers as they claim runs; the
// engine (Rows.finish) calls Release once, after the operator tree's Close,
// and every lease goes back to a process-wide pool for a later statement
// to fill. That is the rule page records keep (morselPump.close): nothing
// an operator holds is read after its close. A Ctx that is never released
// leaves its leases to the collector.
//
// The zero value is ready to use. Producers lease concurrently with the
// coordinator, so the lists are guarded.
type Account struct {
	mu     sync.Mutex
	outs   []*expr.Batch // operators' output batches
	builds []*joinBuild
	tables []*aggTable // global tables and run partials
	runs   []*sortedRun
	// free holds partials the coordinator has merged, leased still, for
	// the producers' next runs: a statement leases about as many partials
	// as its claim windows hold runs, not one per run.
	free []*aggTable

	pumps int // pumps open; counted only when poisoning
}

// What one lease may hold, in bytes of capacity, and go back to its pool:
// a lease past its bound goes to the collector, so one large statement
// cannot pin its buffers for the process's lifetime.
const (
	maxPooledOutBytes   = 256 << 10 // an output batch: one batch of rows
	maxPooledBuildBytes = 1 << 20   // a join's build side and table
	maxPooledTableBytes = 1 << 20   // a global table or run partial
	maxPooledRunBytes   = 1 << 20   // a sorted run
)

// leasePool is the process-wide pool of one role's leases, on shelves by
// shape: a lease grows to the largest input it ever serves, in every
// column and kind it ever held, so a build batch that held orders' columns
// reused for nation's would keep orders' capacity for nation's work. A
// shape — a batch's width, a table's aggregate count — mostly names one
// operator of one statement shape, whose next statement needs the same.
type leasePool[T any] struct {
	max     int          // bytes of capacity a pooled lease may hold
	bytes   func(*T) int // the capacity a lease holds
	shape   func(*T) int // the shelf a lease goes back to
	shelves [leaseShelves]sync.Pool
}

// leaseShelves is how many shapes a pool tells apart; larger shapes share
// its last shelf.
const leaseShelves = 32

var (
	outBatches = leasePool[expr.Batch]{max: maxPooledOutBytes, bytes: (*expr.Batch).CapBytes, shape: (*expr.Batch).Width}
	joinBuilds = leasePool[joinBuild]{max: maxPooledBuildBytes, bytes: (*joinBuild).capBytes, shape: func(b *joinBuild) int { return b.rows.Width() }}
	aggTables  = leasePool[aggTable]{max: maxPooledTableBytes, bytes: (*aggTable).capBytes, shape: (*aggTable).class}
	sortedRuns = leasePool[sortedRun]{max: maxPooledRunBytes, bytes: (*sortedRun).capBytes, shape: func(r *sortedRun) int { return r.buf.Width() }}
)

// get returns a lease of the given shape from its shelf, or a new one.
func (p *leasePool[T]) get(shape int) *T {
	if x, _ := p.shelves[min(shape, leaseShelves-1)].Get().(*T); x != nil {
		return x
	}
	return new(T)
}

func (p *leasePool[T]) put(x *T) {
	if p.bytes(x) <= p.max {
		p.shelves[min(p.shape(x), leaseShelves-1)].Put(x)
	}
}

// lease records x on list and returns it.
func lease[T any](a *Account, list *[]*T, x *T) *T {
	a.mu.Lock()
	*list = append(*list, x)
	a.mu.Unlock()
	return x
}

// batch leases an empty output batch width columns wide.
func (a *Account) batch(width int) *expr.Batch {
	return lease(a, &a.outs, emptyBatch(outBatches.get(width), width))
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
	b := lease(a, &a.builds, joinBuilds.get(width))
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
	t := lease(a, &a.tables, aggTables.get(tableClass(groupBy, aggs, deferSums)))
	t.shape(groupBy, aggs, deferSums)
	return t
}

// partial leases an empty run partial for groupBy and aggs: one this
// statement has merged already when there is one, else one from the pool,
// which is fresh to the statement: its row vectors are not yet sized for
// the statement's runs.
func (a *Account) partial(groupBy []int, aggs []plan.AggSpec) (t *aggTable, fresh bool) {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		t, a.free = a.free[n-1], a.free[:n-1]
	} else {
		t, fresh = aggTables.get(tableClass(groupBy, aggs, true)), true
		a.tables = append(a.tables, t)
	}
	a.mu.Unlock()
	t.shape(groupBy, aggs, true)
	return t, fresh
}

// merged gives back a partial the coordinator has merged, for a producer's
// next run. It stays leased until Release.
func (a *Account) merged(t *aggTable) {
	a.mu.Lock()
	a.free = append(a.free, t)
	a.mu.Unlock()
}

// sortedRun leases an empty sorted run.
func (a *Account) sortedRun(keys []plan.SortKey, limit, width int) *sortedRun {
	r := lease(a, &a.runs, sortedRuns.get(width))
	r.shape(keys, limit, width)
	return r
}

// Release ends every lease, handing each back to its pool. The engine
// calls it once the statement's operator tree is closed — its pumps'
// producers stopped — and reads nothing the operators handed out after
// it. The account may lease again afterwards.
func (a *Account) Release() {
	if poisoning && a.pumps > 0 {
		panic("exec: Release with a pump open: its producers may still write into leased state")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	release(&a.outs, &outBatches, (*expr.Batch).Poison)
	release(&a.builds, &joinBuilds, (*joinBuild).poison)
	release(&a.tables, &aggTables, (*aggTable).poison)
	release(&a.runs, &sortedRuns, (*sortedRun).poison)
	clear(a.free)
	a.free = a.free[:0]
}

// release hands every lease on list back to pool, poisoned first when
// poisoning, and empties the list.
func release[T any](list *[]*T, pool *leasePool[T], poison func(*T)) {
	for _, x := range *list {
		if poisoning {
			poison(x)
		}
		pool.put(x)
	}
	clear(*list)
	*list = (*list)[:0]
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
