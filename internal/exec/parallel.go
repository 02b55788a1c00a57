package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// Morsel-driven parallel execution.
//
// The serial pipeline already flows page-granular batches; a morsel is
// exactly one of those pages. The dispatcher below fans pages out to N
// worker goroutines, each running a compiled scan→filter→project fragment
// over its morsel with a private expr.Cost meter, and a coordinator merges
// finished morsels back IN PAGE ORDER. Only the coordinator ever touches
// the simulated machine — buffer pool accesses, page hooks, and cycle
// charges are replayed during the merge in exactly the sequence the serial
// scanOp/filterOp/projectOp chain produces them. Real wall-clock therefore
// scales with cores while simulated results, durations, and joules are
// bit-identical to Compile's serial path, independent of goroutine
// interleaving and worker count. Multi-core simulated time remains the
// engine's business: it charges work via cpu.SetParallelism exactly as
// before.

// CompileParallel is the plan-lowering entry point: with workers > 1 it
// replaces every maximal scan→filter→project chain with a morsel-driven
// parallel operator spread across workers goroutines; with workers <= 1
// (or for plan shapes with no eligible fragment) the shared switch lowers
// to the serial operator set. Unknown node types panic: the operator set
// is closed.
func CompileParallel(n plan.Node, workers int) Operator {
	return compile(n, workers, nil)
}

// compile owns the single lowering switch, shared by Compile,
// CompileParallel and CompileLeaf (sharedscan.go). A non-nil leaf produces
// the scan leaves and disables the morsel fragment fold — externally
// coordinated leaves (a shared pass) own their page order.
func compile(n plan.Node, workers int, leaf ScanLeaf) Operator {
	if leaf == nil && workers > 1 {
		if f, ok := planFragment(n); ok {
			return wrapSpan(&morselExec{frag: f, workers: workers}, obsv.KindScan,
				fmt.Sprintf("MorselScan(%s x%d)", f.table.Name, workers), f.table.Name)
		}
	}
	switch n := n.(type) {
	case *plan.Scan:
		if leaf != nil {
			op := leaf(n)
			label := fmt.Sprintf("Scan(%s)", n.Table.Name)
			if _, shared := op.(*sharedScanOp); shared {
				label = fmt.Sprintf("SharedScan(%s)", n.Table.Name)
			}
			return wrapSpan(op, obsv.KindScan, label, n.Table.Name)
		}
		return wrapSpan(&scanOp{table: n.Table, filter: n.Filter}, obsv.KindScan,
			fmt.Sprintf("Scan(%s)", n.Table.Name), n.Table.Name)
	case *plan.Filter, *plan.Project:
		return compileFused(n, workers, leaf)
	case *plan.HashJoin:
		j := &hashJoinOp{
			build:    compile(n.Build, workers, leaf),
			buildKey: n.BuildKey, probeKey: n.ProbeKey,
			residual: n.Residual, schema: n.Schema(),
			workers: workers,
		}
		if leaf == nil && workers > 1 {
			if f, ok := planFragment(n.Probe); ok {
				// The probe side folds into the join: probe workers stream
				// morsels through the fragment and probe the completed
				// read-only partitions directly (parallel_join.go), instead
				// of serializing every surviving probe row through the
				// coordinator first.
				j.probeFrag = f
				j.probeLabel = fmt.Sprintf("MorselScan(%s x%d)", f.table.Name, workers)
			}
		}
		if j.probeFrag == nil {
			j.probe = compile(n.Probe, workers, leaf)
		}
		return wrapSpan(j, obsv.KindJoin, fmt.Sprintf("HashJoin(%s = %s)",
			n.Build.Schema().Columns()[n.BuildKey].Name,
			n.Probe.Schema().Columns()[n.ProbeKey].Name), "")
	case *plan.Agg:
		label := fmt.Sprintf("Agg(groups=%d aggs=%d)", len(n.GroupBy), len(n.Aggs))
		if leaf == nil && workers > 1 {
			if f, ok := planFragment(n.Input); ok {
				// The aggregation boundary joins the fragment: workers
				// pre-aggregate their morsels instead of serializing every
				// surviving row through a downstream aggOp.
				return wrapSpan(newParallelAgg(f, n, workers), obsv.KindAgg,
					fmt.Sprintf("ParallelAgg(%s x%d)", f.table.Name, workers), f.table.Name)
			}
		}
		a := &aggOp{input: compile(n.Input, workers, leaf), groupBy: n.GroupBy, aggs: n.Aggs, schema: n.Schema()}
		return wrapSpan(a, obsv.KindAgg, label, "")
	case *plan.Sort:
		return compileSort(n, -1, workers, leaf)
	case *plan.Limit:
		var input Operator
		if srt, ok := n.Input.(*plan.Sort); ok {
			// The sort directly beneath need only keep what the limit takes.
			input = compileSort(srt, n.N, workers, leaf)
		} else {
			input = compile(n.Input, workers, leaf)
		}
		return wrapSpan(&limitOp{input: input, n: n.N},
			obsv.KindLimit, fmt.Sprintf("Limit(%d)", n.N), "")
	default:
		panic(fmt.Sprintf("exec: cannot compile %T", n))
	}
}

// compileSort lowers a Sort whose consumer takes only the first limit rows
// (negative = all of them).
func compileSort(n *plan.Sort, limit, workers int, leaf ScanLeaf) Operator {
	if leaf == nil && workers > 1 {
		if f, ok := planFragment(n.Input); ok {
			// The sort boundary joins the fragment: workers generate sorted
			// runs over their morsels and the coordinator merges them
			// (parallel_sort.go), instead of serializing every surviving
			// row through a downstream serial sort.
			return wrapSpan(&parallelSortOp{frag: f, keys: n.Keys, limit: limit, workers: workers}, obsv.KindSort,
				fmt.Sprintf("ParallelSort(%s x%d)", f.table.Name, workers), f.table.Name)
		}
	}
	return wrapSpan(&sortOp{input: compile(n.Input, workers, leaf), keys: n.Keys, limit: limit},
		obsv.KindSort, fmt.Sprintf("Sort(keys=%d)", len(n.Keys)), "")
}

// compileFused folds the maximal chain of adjacent Filter/Project nodes
// rooted at n into one fused operator over the chain's input — operator
// fusion for the serial pipeline, mirroring what planFragment does for the
// morsel-parallel leaf. Stage order is bottom-up (execution order); cycle
// charging per stage is identical to the unfused operator chain.
func compileFused(n plan.Node, workers int, leaf ScanLeaf) Operator {
	schema := n.Schema()
	var topDown []fragStage
	cur := n
walk:
	for {
		switch t := cur.(type) {
		case *plan.Filter:
			topDown = append(topDown, fragStage{pred: t.Pred})
			cur = t.Input
		case *plan.Project:
			topDown = append(topDown, fragStage{exprs: t.Exprs})
			cur = t.Input
		default:
			break walk
		}
	}
	stages := make([]fragStage, len(topDown))
	for i, st := range topDown {
		stages[len(stages)-1-i] = st
	}
	input := compile(cur, workers, leaf)
	if sc, ok := unwrapSpan(input).(*scanOp); ok {
		// Push the chain's leading filter predicates (every stage before
		// the first projection — they still reference the scan schema) down
		// to the scan's prune decision. Filtering itself stays where it is;
		// only the page-skip test sees the extra conjuncts.
		var terms []expr.Expr
		if sc.filter != nil {
			terms = append(terms, sc.filter)
		}
		for _, st := range stages {
			if st.pred == nil {
				break
			}
			terms = append(terms, st.pred)
		}
		sc.prune = conjoinPrune(terms)
	}
	names := make([]string, len(stages))
	for i, st := range stages {
		if st.pred != nil {
			names[i] = "filter"
		} else {
			names[i] = "project"
		}
	}
	return wrapSpan(&fusedOp{input: input, stages: stages, schema: schema},
		obsv.KindFused, fmt.Sprintf("Fused(%s)", strings.Join(names, ",")), "")
}

// fragStage is one worker-side stage of a fragment: a filter predicate or
// a projection list applied to a morsel's surviving rows.
type fragStage struct {
	pred  expr.Expr   // non-nil for a filter stage
	exprs []expr.Expr // non-nil for a project stage
}

// fragment is a scan→filter→project chain compiled for morsel execution:
// it can evaluate one page entirely in a worker, with no access to shared
// executor state.
type fragment struct {
	table      *catalog.Table
	scanFilter expr.Expr
	stages     []fragStage
	schema     *catalog.Schema
	// pruner is the active zone-map prune predicate for this execution —
	// the scan filter conjoined with the leading filter stages — set by
	// initPrune at operator Open, nil when pruning is off or unusable.
	pruner expr.Expr
}

// initPrune resolves the fragment's prune predicate against the global
// pruning toggle. Called at operator Open so the toggle is read at the
// same point scanOp reads it.
func (f *fragment) initPrune() {
	var terms []expr.Expr
	if f.scanFilter != nil {
		terms = append(terms, f.scanFilter)
	}
	for _, st := range f.stages {
		if st.pred == nil {
			break
		}
		terms = append(terms, st.pred)
	}
	f.pruner = prunePredicate(conjoinPrune(terms))
}

// planFragment recognizes plan subtrees that are pure scan→filter→project
// chains — the pipeline fragments morsel workers can run.
func planFragment(n plan.Node) (*fragment, bool) {
	switch n := n.(type) {
	case *plan.Scan:
		return &fragment{table: n.Table, scanFilter: n.Filter, schema: n.Schema()}, true
	case *plan.Filter:
		f, ok := planFragment(n.Input)
		if !ok {
			return nil, false
		}
		f.stages = append(f.stages, fragStage{pred: n.Pred})
		return f, true
	case *plan.Project:
		f, ok := planFragment(n.Input)
		if !ok {
			return nil, false
		}
		f.stages = append(f.stages, fragStage{exprs: n.Exprs})
		f.schema = n.Schema()
		return f, true
	default:
		return nil, false
	}
}

// morselResult is one page's worth of finished worker output: the
// surviving batch (a selection-narrowed view of the page's column vectors,
// or fresh projected vectors) plus everything the coordinator needs to
// replay the page's simulated accounting — byte/row counts for the scan
// charges and one private cost meter per pipeline stage, charged in stage
// order so the floating-point accumulation matches the serial pipeline bit
// for bit.
type morselResult struct {
	idx       int
	pruned    bool // page skipped by zone maps: replay charges the check only
	pageBytes int64
	pageRows  int
	meters    []expr.Cost // scan-filter meter first, then one per stage
	batch     expr.Batch
}

// fragScratch is the state one worker reuses across the pages of a run:
// the selection vector every filter of the fragment narrows, and the output
// vectors of its projection stages.
type fragScratch struct {
	sel  []int32
	proj []*expr.Batch // per stage; nil until the stage first projects
}

// run executes the fragment over one page in worker context: real
// computation and private cost metering only, no simulated-machine access.
// The batch starts as a zero-copy view of the page's column vectors;
// filters narrow its selection vector, projections replace it with vectors
// of their own. A surviving selection and projected vectors live in ws and
// are valid only until ws is next used: callers that hand the batch to
// another goroutine must take them out of ws first.
func (f *fragment) run(idx int, page *storage.Page, ws *fragScratch) *morselResult {
	if f.pruner != nil && len(page.Zones) > 0 && expr.ZonePrunes(f.pruner, page.Zones) {
		// Worker context decides the skip (pure zone-map reads); the
		// coordinator charges the zone check when it merges the item.
		return &morselResult{idx: idx, pruned: true}
	}
	res := &morselResult{
		idx: idx, pageBytes: page.Bytes, pageRows: page.NumRows(),
		meters: make([]expr.Cost, 1+len(f.stages)),
	}
	res.batch.Alias(&page.Data, nil)
	if f.scanFilter != nil {
		ws.sel = expr.FilterBatch(f.scanFilter, &res.batch, ws.sel, &res.meters[0])
		res.batch.Sel = ws.sel
	}
	for i := range f.stages {
		st := &f.stages[i]
		m := &res.meters[1+i]
		if st.pred != nil {
			// ws.sel may be the batch's own selection: it narrows in place.
			ws.sel = expr.FilterBatch(st.pred, &res.batch, ws.sel, m)
			res.batch.Sel = ws.sel
			continue
		}
		if ws.proj == nil {
			ws.proj = make([]*expr.Batch, len(f.stages))
		}
		if ws.proj[i] == nil {
			ws.proj[i] = expr.NewBatch(len(st.exprs))
		}
		out := ws.proj[i]
		for c := range st.exprs {
			expr.EvalBatch(st.exprs[c], &res.batch, &out.Cols[c], m)
		}
		out.N, out.Sel = res.batch.Len(), nil
		res.batch = *out
	}
	return res
}

// morselItem is one page's worth of finished worker output, keyed by page
// index so the coordinator can merge items in deterministic page order.
// morselExec produces plain morselResults; parallelAggOp wraps them with a
// per-morsel partial aggregation table.
type morselItem interface {
	pageIndex() int
}

func (r *morselResult) pageIndex() int { return r.idx }

// morselPump is the dispatcher half shared by all morsel-driven parallel
// operators: it fans a heap's pages across worker goroutines — each
// calling the work function on one page, in worker context, with no access
// to shared executor state — and hands the finished items back to the
// coordinator in ascending page order. Only the coordinator then touches
// the simulated machine, so simulated accounting stays independent of
// goroutine interleaving and worker count.
type morselPump struct {
	workers int
	// work processes one claimed run of adjacent pages, calling emit once
	// per page with that page's finished item, in page order. emit reports
	// false when the pump is stopping and the worker must abandon the run.
	// Run granularity lets operators keep per-run worker state (the
	// parallel agg's partial tables) while the coordinator still merges
	// per-page items.
	work func(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool)

	src     *storage.MorselSource
	results chan morselItem
	tickets chan struct{} // claim window: bounds runs in flight + reordered
	stop    chan struct{}
	wg      sync.WaitGroup
	pending map[int]morselItem // finished out-of-order morsels by index
	nextIdx int
	total   int
}

// open starts the worker pool over heap. Handout is run-granular
// (NUMA-style affinity: a worker keeps claiming adjacent pages, see
// storage.MorselSource): a worker must hold a ticket to claim a run and
// the coordinator refunds one when a run's last page merges, so the runs
// that are in flight or waiting to be merged never exceed the window — a
// straggler on page 0 cannot make the rest of the pool race ahead and
// buffer the whole table in the reorder map. The results channel's
// capacity is window·runLength morsels, so a held ticket guarantees no
// send of any page in the claimed run ever blocks and the pool can always
// drain on its own.
func (p *morselPump) open(heap *storage.Heap) {
	p.src = storage.NewMorselSource(heap)
	p.total = p.src.NumMorsels()
	p.nextIdx = 0
	if p.total <= 1 {
		// Nothing to overlap: next runs the work inline, sparing
		// tiny-table scans (TPC-H region, nation) the pool setup.
		return
	}
	pool := p.workers
	if pool > p.total {
		pool = p.total
	}
	p.pending = make(map[int]morselItem, pool)
	p.stop = make(chan struct{})
	window := 4 * pool
	p.results = make(chan morselItem, window*p.src.RunLength())
	p.tickets = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		p.tickets <- struct{}{}
	}
	for w := 0; w < pool; w++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *morselPump) worker() {
	defer p.wg.Done()
	emit := func(it morselItem) bool {
		select {
		case <-p.stop:
			return false
		default:
		}
		p.results <- it // never blocks: ticket held
		return true
	}
	for {
		select {
		case <-p.tickets:
		case <-p.stop:
			return
		}
		run, ok := p.src.NextRun()
		if !ok {
			return
		}
		p.work(run, p.src, emit)
	}
}

// next returns the next page's finished item in ascending page order, or
// nil once the heap is exhausted.
func (p *morselPump) next() morselItem {
	for p.nextIdx < p.total {
		var res morselItem
		if p.results == nil {
			// Inline path: the heap was too small to fan out, so the
			// single page runs as a one-page run right here.
			p.work(storage.MorselRun{Start: p.nextIdx, End: p.nextIdx + 1}, p.src,
				func(it morselItem) bool { res = it; return true })
		} else if r, ok := p.pending[p.nextIdx]; ok {
			delete(p.pending, p.nextIdx)
			res = r
		} else {
			r := <-p.results
			p.pending[r.pageIndex()] = r
			continue
		}
		p.nextIdx++
		if p.tickets != nil && (p.nextIdx%p.src.RunLength() == 0 || p.nextIdx == p.total) {
			// Refund the claim ticket only now that the run's last morsel
			// is being merged: results that were merely buffered out of
			// order in p.pending still count against the window, so a
			// straggler on the next-to-merge page cannot let the rest of
			// the pool race ahead and buffer the whole table. The send
			// cannot block — refunds never exceed claims — and cannot
			// deadlock: runs are claimed in contiguous order and a claimer
			// needs no further tickets to finish its whole run, so the
			// next-to-merge page's result always arrives even when
			// tickets are scarce.
			p.tickets <- struct{}{}
		}
		return res
	}
	return nil
}

// close stops the workers and waits for them to exit. It is idempotent.
func (p *morselPump) close() {
	if p.stop != nil {
		close(p.stop)
		p.wg.Wait()
	}
	p.src, p.results, p.tickets, p.stop, p.pending = nil, nil, nil, nil, nil
}

// freeList parks the buffers of merged items for workers to fill again, so
// a steady stream of pages allocates none. The zero value is ready to use.
// It belongs to one operator execution and is garbage with it — a sync.Pool
// would keep every finished statement's buffers reachable until the
// collector's next cycles.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get returns a parked buffer, or nil when there is none.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return nil
	}
	x := f.items[n-1]
	f.items = f.items[:n-1]
	return x
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}

// replayMorselPage replays one finished morsel's simulated page accounting
// exactly as the serial scan pipeline produces it: flush the previous
// page's cost window, charge the zone check when pruning is active, then —
// for read pages — touch the buffer pool, fire the page hook, charge scan
// work, and drain the stage meters in pipeline order. A pruned page's
// window holds the zone check alone, exactly as serial scanOp's skip step
// flushes it.
func replayMorselPage(ctx *Ctx, table string, res *morselResult, pruning bool) {
	ctx.Flush() // close the previous page's pipeline-wide cost window
	if pruning {
		ctx.chargeZoneCheck()
	}
	if res.pruned {
		obsv.PagesPruned.Inc()
		if ctx.Obs != nil {
			ctx.Obs.PagePruned()
		}
		return
	}
	if ctx.Pool != nil {
		ctx.Pool.Access(storage.PageID{Table: table, Index: res.idx}, res.pageBytes)
	}
	ctx.chargePageStream(res.pageBytes)
	ctx.chargePageTuples(res.pageRows)
	for i := range res.meters {
		ctx.ChargeExpr(&res.meters[i])
	}
}

// morselExec is the morsel-driven parallel leaf operator: a morselPump
// fanning a table's pages across worker goroutines running the fragment,
// and a coordinator (Next) that merges finished morsels in deterministic
// page order.
type morselExec struct {
	frag    *fragment
	workers int

	pump morselPump
}

func (m *morselExec) Schema() *catalog.Schema { return m.frag.schema }

// Open starts the worker pool.
func (m *morselExec) Open(*Ctx) error {
	m.frag.initPrune()
	m.pump = morselPump{
		workers: m.workers,
		work: func(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool) {
			var ws fragScratch
			for idx := run.Start; idx < run.End; idx++ {
				// The batch crosses to the coordinator: give it a selection
				// of its own, sized to the survivors, and leave it the
				// projected vectors.
				res := m.frag.run(idx, src.Page(idx), &ws)
				res.batch.Sel = slices.Clone(res.batch.Sel)
				ws.proj = nil
				if !emit(res) {
					return
				}
			}
		},
	}
	m.pump.open(m.frag.table.Heap)
	return nil
}

// Next merges worker results in page order, replaying each page's
// simulated accounting in the serial pipeline's sequence.
func (m *morselExec) Next(ctx *Ctx) (*expr.Batch, error) {
	for {
		it := m.pump.next()
		if it == nil {
			// End of heap: flush the final page's window, as the serial
			// scan does when it discovers the heap is exhausted.
			ctx.Flush()
			return nil, nil
		}
		if b := m.merge(ctx, it.(*morselResult)); b != nil {
			return b, nil
		}
	}
}

// merge replays one page's simulated accounting and returns its batch, or
// nil for an empty post-filter page (charged and skipped, like the serial
// scanOp's read-until-non-empty loop).
func (m *morselExec) merge(ctx *Ctx, res *morselResult) *expr.Batch {
	replayMorselPage(ctx, m.frag.table.Name, res, m.frag.pruner != nil)
	if res.batch.Len() > 0 {
		return &res.batch
	}
	return nil
}

// Close stops the workers and waits for them to exit. It is idempotent.
func (m *morselExec) Close(*Ctx) error {
	m.pump.close()
	return nil
}
