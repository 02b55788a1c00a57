package exec

import (
	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// Parallel vectorized aggregation.
//
// An Agg whose input is a morsel-eligible scan→filter→project fragment no
// longer serializes at the aggregation boundary: each worker runs the
// fragment over its morsel AND folds the surviving rows into a private,
// morsel-local partial table, fed straight from the batch's column
// payloads (group keys encoded column-wise by expr.GroupKeys, aggregate
// arguments evaluated batch-wise into vectors). The coordinator merges
// partial tables in ascending page order and emits groups in sorted
// group-key order — the same order the serial aggOp emits.
//
// Determinism is the design constraint, and it dictates what a partial may
// pre-reduce:
//
//   - COUNT is an integer and MIN/MAX keep a strict-inequality "earliest
//     wins" rule, so per-morsel partials merge losslessly in page order.
//   - SUM and AVG add floats, and float addition is not associative: a
//     sum-of-partial-sums would drift from the serial row-order sum in the
//     last bits. Partials therefore carry each group's argument values in
//     row order, and only the coordinator folds them into the running sum —
//     page order × row order = global row order, so the bits match the
//     serial path exactly, independent of worker count.
//
// The diverted value lists are bounded: once a run has buffered more than
// valueBudget values, the worker seals the run's partial table onto the
// current page's item and starts a fresh table, so a run never holds more
// than one budget's worth past a page boundary. Sealing happens only at
// page boundaries and depends only on page contents, so flush points — and
// therefore the coordinator's fold order, which remains page order × row
// order — are identical at every worker count.
//
// Simulated accounting replays in the coordinator exactly as the serial
// aggOp-over-scan pipeline charges it: per page, the scan/filter/project
// charges (replayMorselPage), then the aggregation's per-row cycles and
// the argument-evaluation meter. Results, durations, and joules are
// bit-identical across worker counts by construction.

// newAggPartial returns a run-local group accumulator: a plain aggState —
// so the NULL, COUNT, and MIN/MAX semantics are single-sourced in
// aggState.accumulate — whose needVals aggregates divert their argument
// values into ordered per-group lists for the coordinator to fold.
func newAggPartial(nAggs int, needVals []bool) *aggState {
	st := newAggState(nAggs)
	st.vals = make([][]float64, nAggs)
	st.needVals = needVals
	return st
}

// morselAggResult is one page's finished worker output on the parallel
// aggregation path: the fragment's page accounting plus the page's share
// of the aggregation charges. Workers aggregate at run granularity — one
// partial table per claimed run of adjacent pages, amortizing table and
// scratch allocations across the run — so normally only the run's LAST
// page carries the partial table (parts nil elsewhere); a run that blows
// its value budget seals tables onto earlier page items too, always at
// page boundaries. Per-page charges stay exactly where the serial
// pipeline charges them.
type morselAggResult struct {
	res      *morselResult
	n        int       // surviving (post-fragment) row count
	aggMeter expr.Cost // argument-evaluation cycles for this page
	keys     []string  // first-seen order within the run
	parts    map[string]*aggState
}

func (r *morselAggResult) pageIndex() int { return r.res.idx }

// parallelAggOp is the morsel-driven parallel aggregation operator: a
// morselPump whose workers run the fragment and pre-aggregate each morsel,
// and a coordinator that merges partials in page order and serves the
// grouped output in batches.
// defaultAggValueBudget bounds the SUM/AVG argument values a run's partial
// table may buffer before the worker seals it onto the current page's item
// (tests shrink it to exercise sealing). At the default morsel run length
// this caps per-run memory without ever splitting a page across tables.
const defaultAggValueBudget = 1 << 14

type parallelAggOp struct {
	frag        *fragment
	groupBy     []int
	aggs        []plan.AggSpec
	schema      *catalog.Schema
	workers     int
	needVals    []bool
	valueBudget int

	pump    morselPump
	groups  map[string]*aggState
	results []expr.Row
	pos     int
	started bool
	out     expr.Batch
}

// newParallelAgg builds the operator for Agg(fragment) plans.
func newParallelAgg(f *fragment, n *plan.Agg, workers int) *parallelAggOp {
	needVals := make([]bool, len(n.Aggs))
	for i, spec := range n.Aggs {
		needVals[i] = spec.Func == plan.Sum || spec.Func == plan.Avg
	}
	return &parallelAggOp{
		frag: f, groupBy: n.GroupBy, aggs: n.Aggs,
		schema: n.Schema(), workers: workers, needVals: needVals,
		valueBudget: defaultAggValueBudget,
	}
}

func (a *parallelAggOp) Schema() *catalog.Schema { return a.schema }

func (a *parallelAggOp) Open(*Ctx) error {
	a.frag.initPrune()
	a.groups = make(map[string]*aggState)
	a.results, a.pos, a.started = nil, 0, false
	a.out = *expr.NewBatch(a.schema.NumCols())
	a.pump = morselPump{workers: a.workers, work: a.work}
	a.pump.open(a.frag.table.Heap)
	return nil
}

// work runs in worker context: the fragment over each of the run's pages,
// folding every page's surviving rows into one run-local partial table —
// real computation and private metering only, no simulated-machine access.
// Pages fold in page order and each group's values append in row order, so
// the run partial preserves the run's global row order. The table rides on
// the run's last page's item; per-page accounting (fragment meters, row
// counts, argument-evaluation cycles) stays on each page's own item.
func (a *parallelAggOp) work(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool) {
	var keys expr.GroupKeys
	argVecs := aggArgVecs(a.aggs)
	parts := make(map[string]*aggState)
	var order []string
	buffered := 0
	items := make([]*morselAggResult, 0, run.Len())

	var ws fragScratch
	for idx := run.Start; idx < run.End; idx++ {
		res := a.frag.run(idx, src.Page(idx), &ws)
		it := &morselAggResult{res: res, n: res.batch.Len()}
		items = append(items, it)
		if it.n == 0 {
			continue
		}
		keys.Build(&res.batch, a.groupBy)
		evalAggArgs(&res.batch, a.aggs, argVecs, &it.aggMeter)
		for li := 0; li < it.n; li++ {
			p, ok := parts[string(keys.Key(li))]
			if !ok {
				key := string(keys.Key(li))
				p = newAggPartial(len(a.aggs), a.needVals)
				p.groupVals = make(expr.Row, len(a.groupBy))
				for i, g := range a.groupBy {
					p.groupVals[i] = res.batch.Cols[g].Get(res.batch.RowIdx(li))
				}
				parts[key] = p
				order = append(order, key)
			}
			p.accumulate(a.aggs, argVecs, li)
		}
		// Count the values this page diverted into partial lists (exactly
		// what accumulate appends: non-NULL SUM/AVG arguments) and seal the
		// run's table onto this page's item once the budget is exceeded. No
		// accumulation follows a seal on the same page, so sealing never
		// splits a page's rows across tables.
		for i, need := range a.needVals {
			if !need {
				continue
			}
			for li := 0; li < it.n; li++ {
				if !argVecs[i].IsNull(li) {
					buffered++
				}
			}
		}
		if a.valueBudget > 0 && buffered > a.valueBudget {
			it.keys, it.parts = order, parts
			parts = make(map[string]*aggState)
			order = nil
			buffered = 0
		}
		// Only the charges and the run partial travel to the coordinator;
		// drop the page view so the batch's vectors are collectable.
		res.batch = expr.Batch{}
	}
	last := items[len(items)-1]
	if last.parts == nil {
		// A seal on the run's final page already carries everything; only
		// attach the (possibly empty) remainder table when it did not.
		last.keys, last.parts = order, parts
	}
	for _, it := range items {
		if !emit(it) {
			return
		}
	}
}

func (a *parallelAggOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if !a.started {
		a.started = true
		a.consume(ctx)
	}
	return serveBuffered(ctx, a.results, &a.pos, &a.out), nil
}

// consume drains the pump in page order, replaying each morsel's simulated
// accounting and merging its partials, then finalizes the grouped output —
// charge for charge the sequence the serial aggOp-over-scan pipeline
// produces.
func (a *parallelAggOp) consume(ctx *Ctx) {
	for {
		it := a.pump.next()
		if it == nil {
			break
		}
		a.mergeMorsel(ctx, it.(*morselAggResult))
	}
	// End of heap: flush the final page's window, as the serial scan does
	// when it discovers the heap is exhausted.
	ctx.Flush()
	a.results = finishAggGroups(a.groups, a.groupBy, a.aggs)
	ctx.Charge(cpu.Compute, ctx.Cost.AggCycles*float64(len(a.results)))
	ctx.Flush()
}

// mergeMorsel replays one page's accounting (scan charges, then the
// aggregation's per-row cycles and argument meter, exactly as the serial
// path interleaves them) and, on a run's last page, folds the run's
// partials into the global group table. Run partials arrive in run order
// (runs are contiguous and items merge in ascending page order) and each
// group's SUM/AVG values fold in the run's row order, so every
// floating-point accumulation happens in global row order — the serial
// path's exact addition sequence.
func (a *parallelAggOp) mergeMorsel(ctx *Ctx, r *morselAggResult) {
	replayMorselPage(ctx, a.frag.table.Name, r.res, a.frag.pruner != nil)
	if r.n > 0 {
		n := float64(r.n)
		ctx.Charge(cpu.Compute, ctx.Cost.AggCycles*n)
		ctx.Charge(cpu.MemStall, ctx.Cost.AggStallCycles*n)
		ctx.ChargeExpr(&r.aggMeter)
	}
	if r.parts == nil {
		return
	}
	for _, key := range r.keys {
		p := r.parts[key]
		st, ok := a.groups[key]
		if !ok {
			st = newAggState(len(a.aggs))
			st.groupVals = p.groupVals
			a.groups[key] = st
		}
		for i := range a.aggs {
			st.counts[i] += p.counts[i]
			for _, v := range p.vals[i] {
				st.sums[i] += v
			}
			if !p.seen[i] {
				continue
			}
			if !st.seen[i] {
				st.mins[i], st.maxs[i], st.seen[i] = p.mins[i], p.maxs[i], true
				continue
			}
			if expr.Compare(p.mins[i], st.mins[i]) < 0 {
				st.mins[i] = p.mins[i]
			}
			if expr.Compare(p.maxs[i], st.maxs[i]) > 0 {
				st.maxs[i] = p.maxs[i]
			}
		}
	}
}

func (a *parallelAggOp) Close(*Ctx) error {
	a.pump.close()
	a.groups, a.results = nil, nil
	return nil
}
