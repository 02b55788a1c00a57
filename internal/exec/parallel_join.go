package exec

import (
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// Merged parallel hash-join probe.
//
// Once Open finishes, the build partitions are immutable, so probing them
// is embarrassingly parallel: each morsel worker runs the probe-side
// fragment over its claimed pages and probes the surviving rows against
// the shared read-only partitions with its own probeScratch — real
// hashing, lookups, residual evaluation, and output assembly all happen in
// worker context. The coordinator merges finished pages back in page order
// through the same ticket window as every other morsel operator and
// replays the serial probe's exact charge sequence: the page's scan
// charges inside the (emulated) probe-leaf scan span, then the per-batch
// probe/match charges inside the join's own span. Simulated results,
// durations, joules, and the profile span tree are byte-identical to the
// serial morsel-scan-under-join lowering at any worker count.

// morselProbeResult is one probe-side page's finished worker output: the
// fragment's page accounting plus the assembled join output, the raw match
// count, and the residual-predicate meter — everything the coordinator
// needs to replay the serial probe's charges without redoing its work.
type morselProbeResult struct {
	res     *morselResult
	n       int         // probe rows surviving the fragment
	out     *expr.Batch // assembled join output (nil when n == 0)
	matches int
	meter   expr.Cost
}

func (r *morselProbeResult) pageIndex() int { return r.res.idx }

// openMergedProbe starts the probe-side worker pool. It runs at the point
// Open would have opened a serial probe operator, and with profiling on it
// creates the scan span that probe leaf would have created — the merged
// probe has no inner operator tree, so the join emulates its child span to
// keep the profile tree identical to the serial lowering.
func (j *hashJoinOp) openMergedProbe(ctx *Ctx) {
	j.probeFrag.initPrune()
	j.pump = morselPump{workers: j.workers, work: j.probeWork}
	if ctx.Obs != nil {
		j.probeSpan = ctx.Obs.OpenSpan(obsv.KindScan, j.probeLabel,
			j.probeFrag.table.Name, ctx.CPU.Clock().Now())
		defer ctx.Obs.Pop(ctx.CPU.Clock().Now())
	}
	j.pump.open(j.probeFrag.table.Heap)
}

// probeWork is the worker function: run the probe fragment over each page
// of the claimed run, then probe the survivors against the completed
// partitions. Private scratch per worker invocation; no simulated-machine
// access.
func (j *hashJoinOp) probeWork(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool) {
	var ps probeScratch
	var ws fragScratch
	for idx := run.Start; idx < run.End; idx++ {
		res := j.probeFrag.run(idx, src.Page(idx), &ws)
		it := &morselProbeResult{res: res, n: res.batch.Len()}
		if it.n > 0 {
			ps.out = expr.NewBatch(j.schema.NumCols())
			it.matches = j.probeBatch(&res.batch, &ps)
			it.out = ps.out
			it.meter = ps.meter
			ps.meter = expr.Cost{}
		}
		res.batch = expr.Batch{} // drop the page view; accounting remains
		if !emit(it) {
			return
		}
	}
}

// mergedNext merges probe-side pages in page order. Each page replays the
// scan-side accounting inside the emulated probe span (exactly what a
// morselExec child would charge), then — for pages with surviving probe
// rows — the probe, match, and residual charges the serial Next makes per
// batch, attributed to the join span the caller's spanOp already pushed.
func (j *hashJoinOp) mergedNext(ctx *Ctx) (*expr.Batch, error) {
	for {
		it := j.pump.next()
		if it == nil {
			// End of the probe heap: the final page's window flushes inside
			// the scan span, as the serial morsel scan flushes when it
			// discovers the heap is exhausted.
			j.pushProbeSpan(ctx)
			ctx.Flush()
			j.popProbeSpan(ctx)
			return nil, nil
		}
		r := it.(*morselProbeResult)
		obsv.ProbeMorsels.Inc()
		j.pushProbeSpan(ctx)
		replayMorselPage(ctx, j.probeFrag.table.Name, r.res, j.probeFrag.pruner != nil)
		if r.n > 0 && j.probeSpan != nil {
			// The serial probe leaf returns only non-empty batches; mirror
			// its span's batch and row counts.
			j.probeSpan.Batches++
			j.probeSpan.Rows += int64(r.n)
		}
		j.popProbeSpan(ctx)
		if r.n == 0 {
			continue
		}
		n := float64(r.n)
		ctx.Charge(cpu.Compute, ctx.Cost.ProbeCycles*n)
		ctx.Charge(cpu.MemStall, ctx.Cost.ProbeStallCycles*n)
		ctx.Charge(cpu.Compute, ctx.Cost.MatchCycles*float64(r.matches))
		ctx.ChargeExpr(&r.meter)
		if r.out.Len() > 0 {
			return r.out, nil
		}
	}
}

func (j *hashJoinOp) pushProbeSpan(ctx *Ctx) {
	if j.probeSpan != nil {
		ctx.Obs.Push(j.probeSpan)
	}
}

func (j *hashJoinOp) popProbeSpan(ctx *Ctx) {
	if j.probeSpan != nil {
		ctx.Obs.Pop(ctx.CPU.Clock().Now())
	}
}
