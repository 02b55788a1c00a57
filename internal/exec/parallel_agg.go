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
//     wins" rule, so per-run partials merge losslessly in page order.
//   - SUM and AVG add floats, and float addition is not associative: a
//     sum-of-partial-sums would drift from the serial row-order sum in the
//     last bits. A partial therefore carries, per run, one flat vector of
//     argument values in row order and one of group ids beside it, and only
//     the coordinator adds them into the running sums — run order × row
//     order = global row order, so the bits match the serial path exactly,
//     independent of worker count. A run is a fixed window of adjacent
//     pages, which bounds both vectors.
//
// Simulated accounting replays in the coordinator exactly as the serial
// aggOp-over-scan pipeline charges it: per page, the scan/filter/project
// charges (replayMorselPage), then the aggregation's per-row cycles and
// the argument-evaluation meter. Results, durations, and joules are
// bit-identical across worker counts by construction.

// morselAggResult is one page's finished worker output on the parallel
// aggregation path: the fragment's page accounting plus the page's share
// of the aggregation charges. Workers aggregate at run granularity — one
// partial table per claimed run of adjacent pages, amortizing table and
// scratch allocations across the run — so only the run's last page carries
// the partial (nil elsewhere). Per-page charges stay exactly where the
// serial pipeline charges them.
type morselAggResult struct {
	res      *morselResult
	n        int       // surviving (post-fragment) row count
	aggMeter expr.Cost // argument-evaluation cycles for this page
	part     *aggTable
}

func (r *morselAggResult) pageIndex() int { return r.res.idx }

// parallelAggOp is the morsel-driven parallel aggregation operator: a
// morselPump whose workers run the fragment and pre-aggregate each run, and
// a coordinator that merges partials in page order and serves the grouped
// output in batches.
type parallelAggOp struct {
	frag    *fragment
	groupBy []int
	aggs    []plan.AggSpec
	schema  *catalog.Schema
	workers int

	pump    morselPump
	table   *aggTable
	spare   freeList[aggTable] // merged partials, for the workers' next runs
	started bool
	out     aggOutput
}

// newParallelAgg builds the operator for Agg(fragment) plans.
func newParallelAgg(f *fragment, n *plan.Agg, workers int) *parallelAggOp {
	return &parallelAggOp{
		frag: f, groupBy: n.GroupBy, aggs: n.Aggs,
		schema: n.Schema(), workers: workers,
	}
}

func (a *parallelAggOp) Schema() *catalog.Schema { return a.schema }

func (a *parallelAggOp) Open(*Ctx) error {
	a.frag.initPrune()
	a.table = newAggTable(a.groupBy, a.aggs, false)
	a.started = false
	a.out = aggOutput{res: *expr.NewBatch(a.schema.NumCols())}
	a.pump = morselPump{workers: a.workers, work: a.work}
	a.pump.open(a.frag.table.Heap)
	return nil
}

// work runs in worker context: the fragment over each of the run's pages,
// folding every page's surviving rows into one run-local partial table —
// real computation and private metering only, no simulated-machine access.
// Pages fold in page order, so the partial's row vectors preserve the run's
// global row order. The table rides on the run's last page's item; per-page
// accounting (fragment meters, row counts, argument-evaluation cycles)
// stays on each page's own item.
func (a *parallelAggOp) work(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool) {
	part := a.spare.get()
	if part == nil {
		part = newAggTable(a.groupBy, a.aggs, true)
	}
	items := make([]*morselAggResult, 0, run.Len())
	var ws fragScratch
	for idx := run.Start; idx < run.End; idx++ {
		res := a.frag.run(idx, src.Page(idx), &ws)
		it := &morselAggResult{res: res, n: res.batch.Len()}
		items = append(items, it)
		if it.n > 0 {
			part.fold(&res.batch, &it.aggMeter)
		}
		// Only the charges and the run partial travel to the coordinator;
		// drop the page view so the batch's vectors are collectable.
		res.batch = expr.Batch{}
	}
	items[len(items)-1].part = part
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
	return a.out.next(ctx), nil
}

// consume drains the pump in page order, replaying each morsel's simulated
// accounting and merging its partials, then emits the grouped output —
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
	a.table.emit(&a.out.res)
	ctx.Charge(cpu.Compute, ctx.Cost.AggCycles*float64(a.out.res.N))
	ctx.Flush()
}

// mergeMorsel replays one page's accounting (scan charges, then the
// aggregation's per-row cycles and argument meter, exactly as the serial
// path interleaves them) and, on a run's last page, merges the run's
// partial into the global group table. Run partials arrive in run order
// (runs are contiguous and items merge in ascending page order), which is
// the order aggTable.merge needs.
func (a *parallelAggOp) mergeMorsel(ctx *Ctx, r *morselAggResult) {
	replayMorselPage(ctx, a.frag.table.Name, r.res, a.frag.pruner != nil)
	if r.n > 0 {
		n := float64(r.n)
		ctx.Charge(cpu.Compute, ctx.Cost.AggCycles*n)
		ctx.Charge(cpu.MemStall, ctx.Cost.AggStallCycles*n)
		ctx.ChargeExpr(&r.aggMeter)
	}
	if r.part != nil {
		a.table.merge(r.part)
		r.part.reset()
		a.spare.put(r.part)
	}
}

func (a *parallelAggOp) Close(*Ctx) error {
	a.pump.close()
	a.table, a.out = nil, aggOutput{}
	return nil
}
