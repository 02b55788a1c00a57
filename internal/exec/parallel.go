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
	"ecodb/internal/scanshare"
	"ecodb/internal/storage"
)

// Morsel-driven execution.
//
// The pipeline flows page-granular batches; a morsel is exactly one of
// those pages. Every scan→filter→project chain over a heap — and an
// aggregation, sort or hash-join probe directly over one — runs through the
// morsel pump below: producers run the compiled fragment over claimed runs
// of adjacent pages with private cost meters, and a coordinator takes
// the finished pages back IN ORDER. Only the coordinator ever touches the
// simulated machine — buffer pool accesses, page hooks, and cycle charges
// are replayed as each page is taken, in order. The worker count decides
// only who produces: one producer runs inline on the coordinator's
// goroutine, more run as a pool. Real wall-clock therefore scales with
// cores while simulated results, durations, and joules are bit-identical
// at every worker count, independent of goroutine interleaving. A scan on
// a shared pass is such a fragment too (sharedscan.go). Multi-core
// simulated time remains the engine's business: it charges work via
// cpu.SetParallelism.

// CompileParallel lowers a plan to physical operators, one operator type
// per algorithm — fused filter/project chain, aggregation, sort, hash join
// — whose input is either its own morsel pump or an input operator, never
// both. Which one depends on the plan's shape alone: every maximal
// scan→filter→project chain over a heap becomes one pump-driven fusedOp,
// and an Agg, Sort or hash-join probe directly over such a chain absorbs it
// into a pump of its own; the same nodes over any other input (a join, an
// aggregation, a limit) take it as an input operator. workers only sizes
// the pumps' producer pools (below 2: inline, no goroutine). Unknown node
// types panic: the operator set is closed. A hash join moves only the
// columns some operator above it reads (liveCols).
func CompileParallel(n plan.Node, workers int) Operator {
	return compile(n, max(workers, 1), nil, nil)
}

// compile owns the single lowering switch, shared by CompileParallel and
// CompileShared (sharedscan.go). A non-nil leaf puts every scan on the
// shared pass of the leaf it builds. live says which of n's output columns
// the operators above read; the root's are all live.
func compile(n plan.Node, workers int, leaf ScanLeaf, live liveCols) Operator {
	if f := heapFragment(n, leaf); f != nil {
		// Scan batches alias page vectors: nothing to leave out.
		return fusedScan(f, workers)
	}
	switch n := n.(type) {
	case *plan.Filter, *plan.Project:
		return compileFused(n, workers, leaf, live)
	case *plan.HashJoin:
		bw, width := n.Build.Schema().NumCols(), n.Schema().NumCols()
		// What the join itself reads besides its output: both keys and the
		// residual's columns.
		in := live.plus([]int{n.BuildKey, bw + n.ProbeKey}, n.Residual)
		buildLive := in.sub(0, bw)
		j := &hashJoinOp{
			build:     compile(n.Build, workers, leaf, buildLive),
			buildKey:  n.BuildKey,
			probeKey:  n.ProbeKey,
			buildCols: buildLive.indices(bw),
			outCols:   live.indices(width),
			residual:  expr.CompileFilter(n.Residual),
			schema:    n.Schema(),
		}
		if n.Residual != nil {
			j.residCols = readBy(width, nil, n.Residual).indices(width)
		}
		if f := heapFragment(n.Probe, leaf); f != nil {
			// The probe side folds into the join: the pump's producers run
			// the fragment and probe the completed read-only table directly
			// (parallel_join.go), instead of handing every surviving probe
			// row to a probe operator first.
			j.pump = morselPump{frag: f, workers: workers, sink: j.probeSink, leafLabel: f.label(workers)}
		} else {
			j.probe = compile(n.Probe, workers, leaf, in.sub(bw, width))
		}
		return wrapSpan(j, obsv.KindJoin, fmt.Sprintf("HashJoin(%s = %s)",
			n.Build.Schema().Columns()[n.BuildKey].Name,
			n.Probe.Schema().Columns()[n.ProbeKey].Name), "")
	case *plan.Agg:
		a := &aggOp{groupBy: n.GroupBy, aggs: n.Aggs, schema: n.Schema()}
		if f := heapFragment(n.Input, leaf); f != nil {
			// The aggregation boundary joins the fragment: producers
			// pre-aggregate their runs (parallel_agg.go).
			a.pump = morselPump{frag: f, workers: workers, sink: a.sink, leafLabel: f.passLabel()}
			return wrapSpan(a, obsv.KindAgg,
				fmt.Sprintf("ParallelAgg(%s x%d)", f.table.Name, workers), f.table.Name)
		}
		args := make([]expr.Expr, len(n.Aggs))
		for i, spec := range n.Aggs {
			args[i] = spec.Arg
		}
		a.input = compile(n.Input, workers, leaf, readBy(n.Input.Schema().NumCols(), n.GroupBy, args...))
		return wrapSpan(a, obsv.KindAgg, fmt.Sprintf("Agg(groups=%d aggs=%d)", len(n.GroupBy), len(n.Aggs)), "")
	case *plan.Sort:
		return compileSort(n, -1, workers, leaf)
	case *plan.Limit:
		var op Operator
		if srt, ok := n.Input.(*plan.Sort); ok {
			// A sort told the limit serves at most n rows, having charged
			// its whole input first: it is the limit.
			op = compileSort(srt, n.N, workers, leaf)
		} else {
			op = &limitOp{input: compile(n.Input, workers, leaf, nil), n: n.N}
		}
		return wrapSpan(op, obsv.KindLimit, fmt.Sprintf("Limit(%d)", n.N), "")
	default:
		panic(fmt.Sprintf("exec: cannot compile %T", n))
	}
}

// fusedScan is the pump-driven fused operator over fragment f, in the span
// of its scan leaf.
func fusedScan(f *fragment, workers int) Operator {
	return wrapSpan(&fusedOp{pump: morselPump{frag: f, workers: workers}, schema: f.schema},
		obsv.KindScan, f.label(workers), f.table.Name)
}

// compileSort lowers a Sort whose consumer takes only the first limit rows
// (negative = all of them).
func compileSort(n *plan.Sort, limit, workers int, leaf ScanLeaf) Operator {
	s := &sortOp{keys: n.Keys, limit: limit, schema: n.Schema()}
	if f := heapFragment(n.Input, leaf); f != nil {
		// The sort boundary joins the fragment: producers generate sorted
		// runs and the coordinator merges them (parallel_sort.go).
		s.pump = morselPump{frag: f, workers: workers, sink: s.sink, leafLabel: f.passLabel()}
		return wrapSpan(s, obsv.KindSort,
			fmt.Sprintf("ParallelSort(%s x%d)", f.table.Name, workers), f.table.Name)
	}
	// A sort moves whole rows: every column of its input is live.
	s.input = compile(n.Input, workers, leaf, nil)
	return wrapSpan(s, obsv.KindSort, fmt.Sprintf("Sort(keys=%d)", len(n.Keys)), "")
}

// compileFused folds the maximal chain of adjacent Filter/Project nodes
// rooted at n into one fused operator over the chain's input operator,
// which is not a heap scan (heapFragment took the chain otherwise): a join,
// an aggregation or a limit. Stage order is bottom-up (execution order);
// cycle charging per stage is identical to an unfused operator chain. live
// is the chain's output mask; walking down, a filter adds its predicate's
// columns and a projection reads the columns of all its expressions, each
// of which it evaluates whether or not it is read.
func compileFused(n plan.Node, workers int, leaf ScanLeaf, live liveCols) Operator {
	schema := n.Schema()
	var stages []fragStage
	cur := n
walk:
	for {
		switch t := cur.(type) {
		case *plan.Filter:
			stages = append(stages, fragStage{pred: expr.CompileFilter(t.Pred)})
			live = live.plus(nil, t.Pred)
			cur = t.Input
		case *plan.Project:
			stages = append(stages, fragStage{exprs: t.Exprs})
			live = readBy(t.Input.Schema().NumCols(), nil, t.Exprs...)
			cur = t.Input
		default:
			break walk
		}
	}
	slices.Reverse(stages)
	names := make([]string, len(stages))
	for i, st := range stages {
		if st.pred != nil {
			names[i] = "filter"
		} else {
			names[i] = "project"
		}
	}
	return wrapSpan(&fusedOp{input: compile(cur, workers, leaf, live), stages: stages, schema: schema},
		obsv.KindFused, fmt.Sprintf("Fused(%s)", strings.Join(names, ",")), "")
}

// liveCols is a column-liveness mask over a plan node's output, computed
// top-down by compile: column c is live when an operator above the node
// reads it. nil means every column is live, as at the root and beneath a
// sort or a limit. Only a hash join acts on it, copying its build side's
// live columns and gathering its live output columns; every other column
// of its batches stays an empty vector. No charge reads an intermediate
// batch's width — only the root's bytes are billed — so liveness moves real
// time and allocation alone.
type liveCols []bool

// readBy returns the mask over a width-column input of which a reader reads
// cols and the columns exprs refer to (nil exprs are skipped).
func readBy(width int, cols []int, exprs ...expr.Expr) liveCols {
	l := make(liveCols, width)
	for _, c := range cols {
		l[c] = true
	}
	var refs []int
	for _, e := range exprs {
		if e != nil {
			refs = expr.AppendCols(refs, e)
		}
	}
	for _, c := range refs {
		l[c] = true
	}
	return l
}

// plus returns l with cols and the columns exprs refer to marked live; all
// live stays all live.
func (l liveCols) plus(cols []int, exprs ...expr.Expr) liveCols {
	if l == nil {
		return nil
	}
	m := readBy(len(l), cols, exprs...)
	for c, on := range l {
		m[c] = m[c] || on
	}
	return m
}

// sub returns the mask of columns lo..hi-1, renumbered from 0.
func (l liveCols) sub(lo, hi int) liveCols {
	if l == nil {
		return nil
	}
	return l[lo:hi]
}

// indices lists the live columns of a width-column output in ascending
// order.
func (l liveCols) indices(width int) []int {
	out := make([]int, 0, width)
	for c := 0; c < width; c++ {
		if l == nil || l[c] {
			out = append(out, c)
		}
	}
	return out
}

// fragStage is one stage of a filter/project chain: a filter predicate,
// compiled once for the statement, or a projection list applied to the
// rows that survive so far.
type fragStage struct {
	pred  *expr.Filter // non-nil for a filter stage
	exprs []expr.Expr  // non-nil for a project stage
}

// stageScratch is what one runner of a stage chain reuses from batch to
// batch: the selection vector every filter narrows, the working memory the
// compiled filters run in, and the output vectors of the projection
// stages. A page record's scratch outlives the statement (records), so it
// may come in holding another chain's projections.
type stageScratch struct {
	sel    []int32
	filter expr.FilterScratch
	proj   []*expr.Batch // per stage; nil until the stage first projects
}

// apply runs stages over b in place, metering stage i into meters[i]:
// filters narrow b's selection (into ws.sel — never into a selection b
// arrived with, which belongs to whoever produced the batch), projections
// replace b with vectors of their own. What b then refers to lives in ws
// and is valid only until ws is next used.
func (ws *stageScratch) apply(stages []fragStage, b *expr.Batch, meters []expr.Cost) {
	for i := range stages {
		st, m := &stages[i], &meters[i]
		if st.pred != nil {
			// ws.sel may already be b's selection: it narrows in place.
			ws.sel = st.pred.Select(b, ws.sel, &ws.filter, m)
			b.Sel = ws.sel
			continue
		}
		// A recycled scratch may have run a chain with fewer stages, or
		// projected another width at this one.
		if len(ws.proj) < len(stages) {
			ws.proj = append(ws.proj, make([]*expr.Batch, len(stages)-len(ws.proj))...)
		}
		if ws.proj[i] == nil {
			ws.proj[i] = new(expr.Batch)
		}
		out := ws.proj[i]
		out.SetWidth(len(st.exprs))
		for c := range st.exprs {
			expr.EvalBatch(st.exprs[c], b, &out.Cols[c], m)
		}
		out.N, out.Sel = b.Len(), nil
		*b = *out
	}
}

// fragment is a scan→filter→project chain over a heap, compiled for the
// pump: it can evaluate one page entirely in a producer, with no access to
// shared executor state.
type fragment struct {
	table      *catalog.Table
	scanFilter *expr.Filter
	stages     []fragStage
	schema     *catalog.Schema
	// pass, when non-nil, is the shared pass the scan rides (NewSharedScan).
	pass *scanshare.Coordinator
}

// Scan-time zone-map pruning is a pure skip decision: a page is skipped
// only when its zones prove that no row of it can survive the fragment, so
// results are bit-identical with pruning on or off. What changes is the
// charge stream — a pruned page costs one zone check instead of a
// buffer-pool access, a disk read, page streaming and per-tuple work.

// prunes reports whether zones, a page's, prove that no row of the page
// survives one of the fragment's prune filters.
func (f *fragment) prunes(zones []expr.Zone) bool {
	return len(zones) > 0 && f.anyPruneFilter(func(g *expr.Filter) bool { return g.Prunes(zones) })
}

// anyPruneFilter reports whether test holds for one of the fragment's
// prune filters: its scan filter and, for a private scan, the filter stages
// before its first projection — they still read the scan's schema, and
// filtering itself stays where it is. A pass consumer prunes on its scan
// filter alone: that is the test it attaches with, and the pass skips a
// page only when every consumer's test rejects it.
func (f *fragment) anyPruneFilter(test func(*expr.Filter) bool) bool {
	if f.scanFilter != nil && test(f.scanFilter) {
		return true
	}
	if f.pass != nil {
		return false
	}
	for _, st := range f.stages {
		if st.pred == nil {
			return false
		}
		if test(st.pred) {
			return true
		}
	}
	return false
}

// label is the span label of the fragment's scan leaf.
func (f *fragment) label(workers int) string {
	if f.pass != nil {
		return fmt.Sprintf("SharedScan(%s)", f.table.Name)
	}
	return fmt.Sprintf("MorselScan(%s x%d)", f.table.Name, workers)
}

// passLabel is the leaf span label an aggregation's or a sort's pump gives
// a scan on a shared pass, where the consumer's pass detail is recorded; ""
// for a private scan, whose accounting the operator's own span takes.
func (f *fragment) passLabel() string {
	if f.pass == nil {
		return ""
	}
	return f.label(0)
}

// heapFragment recognizes plan subtrees that are pure scan→filter→project
// chains over a heap — what the pump's producers can run — and returns nil
// for anything else. Under a leaf lowering each scan's fragment is the
// leaf's, on a shared pass.
func heapFragment(n plan.Node, leaf ScanLeaf) *fragment {
	switch n := n.(type) {
	case *plan.Scan:
		if leaf != nil {
			return leafFragment(leaf(n))
		}
		return &fragment{table: n.Table, scanFilter: expr.CompileFilter(n.Filter), schema: n.Schema()}
	case *plan.Filter:
		f := heapFragment(n.Input, leaf)
		if f != nil {
			f.stages = append(f.stages, fragStage{pred: expr.CompileFilter(n.Pred)})
		}
		return f
	case *plan.Project:
		f := heapFragment(n.Input, leaf)
		if f != nil {
			f.stages = append(f.stages, fragStage{exprs: n.Exprs})
			f.schema = n.Schema()
		}
		return f
	default:
		return nil
	}
}

// morselResult is one page's worth of finished producer output: the rows
// that survive the fragment plus everything the coordinator needs to replay
// the page's simulated accounting — one private cost meter per pipeline
// stage, charged in stage order so the floating-point accumulation is the
// same whoever produced the page — and whatever the operator's sink made of
// the rows. The page's byte and row counts are read off the page itself.
//
// Records come from one process-wide pool (records) and go back to it when
// their pump closes, so a record keeps its buffers from page to page and
// from statement to statement: its meters, its probe scratch and, once it
// has carried a batch to the coordinator, a selection buffer and projection
// vectors of its own for that batch. That is safe because no batch a pump
// hands out is read after the pump's close (see close). The record stays
// within the 160-byte allocation size class.
type morselResult struct {
	idx    int         // the page's position in the pump's lap (storage.MorselSource)
	pruned bool        // page skipped by zone maps: replay charges the check only
	meters []expr.Cost // scan-filter meter first, then one per stage
	rows   int         // rows surviving the fragment
	// batch is those rows: a selection-narrowed view of the page's column
	// vectors, or projected vectors. It reaches the sink, and — with no
	// sink, or for a probe with matches — the pump's consumer.
	batch expr.Batch
	// own holds batch's selection and projection vectors once the batch
	// crosses from a pooled producer to the coordinator (adopt); nil until
	// the record first carries one. An inline record, and a producer's
	// spare, run the fragment in it.
	own *stageScratch

	// What a sink leaves for its coordinator.
	argMeter expr.Cost     // agg: argument-evaluation cycles for this page
	part     *aggTable     // agg: the run's partial table, on the run's last page
	run      *sortedRun    // sort: the sealed run, on the run's last page
	ps       *probeScratch // probe: the match pairs into batch; nil until the record first probes
	matches  int           // probe: match count

	// next links the records of one claimed run in position order, as they
	// cross to the coordinator and as they return with a ticket, and a
	// producer's free list.
	next *morselResult
}

// records is the pool every pump draws its page records from. Unlike the
// operators' free lists it outlives statements: each statement's records
// are the previous one's, buffers and all.
var records = sync.Pool{New: func() any { return new(morselResult) }}

// reset empties res for its next page, keeping its buffers.
func (res *morselResult) reset() {
	*res = morselResult{meters: res.meters[:0], own: res.own, ps: res.ps}
}

// recycle returns a chain of records linked through next to the pool,
// dropping what they point into — pages, partials, runs — and keeping their
// buffers.
func recycle(res *morselResult) {
	for res != nil {
		next := res.next
		res.reset()
		records.Put(res)
		res = next
	}
}

// scratch returns res's own stage scratch, made on first use.
func (res *morselResult) scratch() *stageScratch {
	if res.own == nil {
		res.own = new(stageScratch)
	}
	return res.own
}

// run executes the fragment over one page into res, in producer context:
// real computation and private cost metering only, no simulated-machine
// access. With prune set, a page whose zones prove no row survives is
// skipped. The batch starts as a zero-copy view of the page's column
// vectors; see stageScratch.apply for what happens to it and how long it
// stays valid.
func (f *fragment) run(res *morselResult, idx int, page *storage.Page, ws *stageScratch, prune bool) {
	res.reset()
	res.idx = idx
	if prune && f.prunes(page.Zones) {
		// Producer context decides the skip (pure zone-map reads); the
		// coordinator charges the zone check when it takes the page.
		res.pruned = true
		return
	}
	res.meters = append(res.meters, make([]expr.Cost, 1+len(f.stages))...)
	res.batch.Alias(&page.Data, nil)
	if f.scanFilter != nil {
		ws.sel = f.scanFilter.Select(&res.batch, ws.sel, &ws.filter, &res.meters[0])
		res.batch.Sel = ws.sel
	}
	ws.apply(f.stages, &res.batch, res.meters[1:])
	res.rows = res.batch.Len()
}

// adopt moves the non-empty batch res carries out of ws, so that it stays
// valid while the producer goes on with ws: the selection is copied into
// res's own buffer, and the projection vectors trade places with the ones
// res carried last time — perhaps for another fragment, in another
// statement — which ws fills next.
func (res *morselResult) adopt(ws *stageScratch) {
	own := res.scratch()
	if res.batch.Sel != nil {
		own.sel = append(own.sel[:0], res.batch.Sel...)
		res.batch.Sel = own.sel
	}
	own.proj, ws.proj = ws.proj, own.proj
}

// morselPump drives a fragment over its heap for every pump-driven
// operator. Producers claim runs of adjacent positions (NUMA-style
// affinity, see storage.MorselSource) and, per page, run the fragment and
// then the operator's sink — in producer context, with no access to shared
// executor state. The coordinator (next) takes the finished pages back in
// position order and replays each one's scan accounting, so only it
// touches the simulated machine and simulated accounting is independent of
// goroutine interleaving and worker count. A private scan's positions are
// its pages in ascending order; a shared-pass consumer's start at the page
// where it joined the pass.
type morselPump struct {
	frag    *fragment
	workers int
	// sink, when non-nil, makes one producer's page function: called on
	// every page of the producer's runs in position order, after the
	// fragment ran, with the run the page belongs to. It may keep per-run
	// state between calls and attaches what the coordinator needs to res.
	// With no sink the surviving batch itself is the product; a sink that
	// leaves matches on res has the batch cross with them.
	sink func() func(res *morselResult, run storage.MorselRun)
	// leafLabel, when set, gives the pump's scan accounting a profile span
	// of its own under the operator's, as if a scan leaf had charged it.
	leafLabel string

	src     *storage.MorselSource
	span    *obsv.Span
	total   int
	nextIdx int
	// prune is set by open when the statement prunes (Ctx.ZoneMapPruning)
	// and one of the fragment's prune filters is Prunable: every page is
	// then checked against its zones, and charged the check.
	prune bool

	// A pump over a shared pass is a consumer of it, attached from open to
	// close; surface charges a step of the pass that this pump's pull
	// advanced.
	cons    *scanshare.Consumer
	surface scanshare.Surface

	// One producer runs inline, on the coordinator's goroutine, filling
	// the same record page after page: nothing to overlap, so no goroutine,
	// no channel, and no allocation per page.
	inline *producer
	run    storage.MorselRun // the run inline is walking
	rec    *morselResult

	// A pool hands off whole runs: a producer sends a claimed run's
	// records once, the first linked to the rest, and the coordinator
	// parks runs that finish ahead of their turn in ring, at their run
	// number modulo the window.
	results chan *morselResult
	ring    []*morselResult
	// tickets is the claim window, bounding runs in flight + waiting their
	// turn. A refunded ticket carries back the records of the run the
	// coordinator finished taking, for the producer that claims it to fill.
	tickets chan *morselResult
	stop    chan struct{}
	wg      sync.WaitGroup

	// cur is the rest of the run being taken, and taken the whole of it.
	// The run's last record stays the coordinator's until the take after
	// it, which refunds the run's ticket with its records.
	cur, taken *morselResult
}

// producer is the state one producer keeps across pages: the scratch it
// runs the fragment in — a record's, so it is recycled with the record —
// and its sink's page function.
type producer struct {
	ws   *stageScratch
	sink func(res *morselResult, run storage.MorselRun)
}

func (p *morselPump) newProducer(ws *stageScratch) *producer {
	w := &producer{ws: ws}
	if p.sink != nil {
		w.sink = p.sink()
	}
	return w
}

func (p *morselPump) produce(w *producer, res *morselResult, idx int, run storage.MorselRun) {
	p.frag.run(res, idx, p.src.Page(idx), w.ws, p.prune)
	if w.sink != nil {
		w.sink(res, run)
	}
}

// open readies the pump: inline when the pool would hold one producer — a
// single worker, or a heap of at most one run (TPC-H customer, supplier,
// nation and region at SF 0.01) — else a pool of goroutines, one per run
// at most. A pooled producer must hold a ticket to claim a run and the
// coordinator refunds one when it moves past a run, so the runs that are
// in flight or waiting their turn never exceed the claim window of one run
// per producer — a straggler on the next run cannot make the rest of the
// pool race ahead and buffer the whole table. The results channel and the
// ring hold a window of runs, so a held ticket guarantees the run's send
// never blocks and the pool can always drain on its own.
//
// A pump over a shared pass attaches its consumer here, so co-admitted
// statements, opened before any is pulled, join the pass at the same page.
func (p *morselPump) open(ctx *Ctx) {
	p.prune = ctx.ZoneMapPruning && p.frag.anyPruneFilter((*expr.Filter).Prunable)
	if p.leafLabel != "" && ctx.Obs != nil {
		p.span = ctx.Obs.OpenSpan(obsv.KindScan, p.leafLabel, p.frag.table.Name, ctx.CPU.Clock().Now())
		ctx.Obs.Pop(ctx.CPU.Clock().Now())
	}
	heap := p.frag.table.Heap
	if pass := p.frag.pass; pass != nil {
		var prune scanshare.Prune
		if p.prune {
			prune = p.frag.prunes
		}
		p.cons = pass.AttachPruned(prune)
		p.surface = func(_ int, bytes int64) { ctx.chargePageStream(bytes) }
		p.src = storage.NewMorselSourceFrom(heap, p.cons.Entry())
	} else {
		p.src = storage.NewMorselSource(heap)
	}
	p.total = p.src.NumMorsels()
	p.nextIdx, p.run = 0, storage.MorselRun{}
	runs := (p.total + storage.DefaultMorselRunLength - 1) / storage.DefaultMorselRunLength
	pool := min(p.workers, runs)
	if pool <= 1 {
		p.rec = records.Get().(*morselResult)
		p.inline = p.newProducer(p.rec.scratch())
		return
	}
	p.stop = make(chan struct{})
	window := pool // one run per producer: 32 pages of records in flight each
	p.results = make(chan *morselResult, window)
	p.ring = make([]*morselResult, window)
	p.tickets = make(chan *morselResult, window)
	for i := 0; i < window; i++ {
		p.tickets <- nil
	}
	for w := 0; w < pool; w++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// worker is one pooled producer. It runs the fragment in the scratch of a
// spare record, so its working vectors are recycled too; it fills the
// records refunded tickets bring back before drawing from the pool, and
// returns to the pool what it still holds when it exits.
func (p *morselPump) worker() {
	spare := records.Get().(*morselResult)
	w := p.newProducer(spare.scratch())
	var free *morselResult // records to fill before drawing more, linked through next
	defer func() {
		recycle(free)
		recycle(spare)
		p.wg.Done()
	}()
	for {
		select {
		case recs := <-p.tickets:
			for recs != nil {
				res := recs
				recs, res.next = res.next, free
				free = res
			}
		case <-p.stop:
			return
		}
		run, ok := p.src.NextRun()
		if !ok {
			return
		}
		var first, last *morselResult
		for idx := run.Start; idx < run.End; idx++ {
			select {
			case <-p.stop:
				if last != nil {
					last.next, free = free, first
				}
				return
			default:
			}
			res := free
			if res != nil {
				free, res.next = res.next, nil
			} else {
				res = records.Get().(*morselResult)
			}
			p.produce(w, res, idx, run)
			if res.rows == 0 || w.sink != nil && res.matches == 0 {
				// No rows cross — none survived, or the sink has consumed
				// them: drop the page view, so only the accounting travels.
				// A probe's matches index into the rows, which cross.
				res.batch = expr.Batch{}
			} else {
				res.adopt(w.ws)
			}
			if first == nil {
				first = res
			} else {
				last.next = res
			}
			last = res
		}
		p.results <- first // never blocks: ticket held
	}
}

// take returns the next position's finished record, or nil once the lap is
// exhausted. The record is valid until the next take.
func (p *morselPump) take() *morselResult {
	if p.nextIdx == p.total {
		return nil
	}
	if p.inline != nil {
		if p.nextIdx == p.run.End {
			p.run, _ = p.src.NextRun()
		}
		p.produce(p.inline, p.rec, p.nextIdx, p.run)
		p.nextIdx++
		return p.rec
	}
	if p.cur == nil {
		// The next run's turn. The run taken before it is spent: its
		// ticket goes back with its records. The send cannot block —
		// refunds never exceed claims — and waiting for the next run
		// cannot deadlock: runs are claimed in order and the refund frees
		// a ticket, so it is claimed, or finished and parked, already.
		if p.taken != nil {
			p.tickets <- p.taken
		}
		slot := p.nextIdx / storage.DefaultMorselRunLength % len(p.ring)
		for p.ring[slot] == nil {
			run := <-p.results
			p.ring[run.idx/storage.DefaultMorselRunLength%len(p.ring)] = run
		}
		p.cur, p.taken, p.ring[slot] = p.ring[slot], p.ring[slot], nil
	}
	res := p.cur
	p.cur = res.next
	p.nextIdx++
	return res
}

// next takes the next page and replays its simulated scan accounting:
// flush the previous page's cost window, charge the zone check when pruning
// is active, then — for read pages — touch the buffer pool (misses become
// simulated disk reads), fire the page hook, charge scan work, and drain
// the stage meters in pipeline order. A pruned page's window holds the zone
// check alone. Once the lap is exhausted it flushes the final page's
// window and returns nil.
//
// Over a shared pass the pool access, page hook and page stream are the
// pass's: the coordinator steps the pass for the page first, which makes
// them when this pull advances the pass and not when another consumer's
// did, and then charges the zone check, scan work and stage meters.
//
// The flush sits at the top of each page step — by which point the
// operators above have charged their work for the previous page — so every
// flushed power-trace window holds one page's worth of whole-pipeline work,
// exactly as the row-at-a-time engine's page loop produced it. The 1 Hz
// GUI-sampled energies of the paper's methodology depend on that
// microstructure, which is why a batch never spans a page boundary. Pages
// hold ~10²–10³ rows, plenty to amortize per-batch overhead.
func (p *morselPump) next(ctx *Ctx) *morselResult {
	res := p.take()
	if p.span != nil {
		ctx.Obs.Push(p.span)
		defer func() { ctx.Obs.Pop(ctx.CPU.Clock().Now()) }()
	}
	ctx.Flush() // close the previous page's pipeline-wide cost window
	if res == nil {
		return nil
	}
	if p.cons != nil {
		idx, _, pruned, ok := p.cons.Next(p.surface)
		if want := p.src.Index(res.idx); !ok || idx != want || pruned != res.pruned {
			panic(fmt.Sprintf("exec: pass over %s stepped to page %d (pruned %v), the pump produced page %d (pruned %v)",
				p.frag.table.Name, idx, pruned, want, res.pruned))
		}
	}
	if p.prune {
		ctx.Cost.ZoneCheck(ctx, 1)
	}
	if res.pruned {
		if p.cons == nil {
			// A pass counts its skips itself, once per pass step.
			obsv.PagesPruned.Inc()
			if ctx.Obs != nil {
				ctx.Obs.PagePruned()
			}
		}
		return res
	}
	page := p.src.Page(res.idx)
	if p.cons == nil {
		if ctx.Pool != nil {
			ctx.Pool.Access(storage.PageID{Table: p.frag.table.Name, Index: res.idx}, page.Bytes)
		}
		ctx.chargePageStream(page.Bytes)
	}
	ctx.Cost.ScanTuples(ctx, float64(page.NumRows()))
	for i := range res.meters {
		ctx.ChargeExpr(&res.meters[i])
	}
	if p.span != nil && res.rows > 0 {
		// A scan leaf returns only non-empty batches.
		p.span.Batches++
		p.span.Rows += int64(res.rows)
	}
	return res
}

// close stops the producers and waits for them to exit, then detaches a
// shared-pass consumer, recording its pass detail — where it joined the
// pass, how many steps it took, how many it pruned — on the pump's leaf
// span, or on the current span for a pump without one. It is idempotent.
//
// Every record goes back to the pool here: the inline record; the run
// being taken, the runs parked in the ring or still in the results
// channel, and the records riding refunded tickets (producers recycle
// their free lists as they exit). So no batch the pump handed out may be
// read after close. The executor keeps that contract already: an
// operator's batch is valid until its next Next, limitOp copies its final
// rows before draining its input, and the engine drains a stream before
// closing it.
func (p *morselPump) close(ctx *Ctx) {
	if p.stop != nil {
		close(p.stop)
		p.wg.Wait()
		recycle(p.taken)
		for _, run := range p.ring {
			recycle(run)
		}
		close(p.results)
		for run := range p.results {
			recycle(run)
		}
		close(p.tickets)
		for recs := range p.tickets {
			recycle(recs)
		}
	}
	recycle(p.rec)
	if p.cons != nil {
		if ctx.Obs != nil {
			sp := p.span
			if sp == nil {
				sp = ctx.Obs.Cur()
			}
			sp.Shared, sp.SharedEntry = true, p.cons.Entry()
			sp.SharedSeen, sp.SharedPruned = p.cons.PagesSeen(), p.cons.PagesPruned()
		}
		p.cons.Close()
	}
	*p = morselPump{frag: p.frag, workers: p.workers, sink: p.sink, leafLabel: p.leafLabel}
}

// openInput opens an operator's input: the input operator, or — when there
// is none — the operator's own pump.
func openInput(ctx *Ctx, input Operator, pump *morselPump) error {
	if input == nil {
		pump.open(ctx)
		return nil
	}
	return input.Open(ctx)
}

// closeInput closes what openInput opened. It is idempotent.
func closeInput(ctx *Ctx, input Operator, pump *morselPump) error {
	if input == nil {
		pump.close(ctx)
		return nil
	}
	return input.Close(ctx)
}

// freeList parks the buffers of merged items — an aggregation's run
// partials — for producers to fill again, so a steady stream of pages
// allocates none. The zero value is ready to use. It belongs to one
// operator execution and is garbage with it: a partial is sized to its
// statement's groups and aggregates, so a sync.Pool would only keep every
// finished statement's tables reachable until the collector's next cycles.
// Page records, whose buffers any fragment can refill, are pooled across
// statements instead (records).
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
