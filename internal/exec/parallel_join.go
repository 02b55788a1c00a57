package exec

import (
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// Merged parallel hash-join probe.
//
// Once Open finishes, the build rows and their table are immutable, so
// probing them is embarrassingly parallel: each morsel worker runs the
// probe-side fragment over its claimed pages and probes the surviving rows
// against the shared read-only table with its own probeScratch — real
// lookups, output assembly, and residual evaluation all happen in worker
// context. The coordinator merges finished pages back in page order
// through the same ticket window as every other morsel operator and
// replays the serial probe's exact charge sequence: the page's scan
// charges inside the (emulated) probe-leaf scan span, then the per-batch
// probe/match charges inside the join's own span. Simulated results,
// durations, joules, and the profile span tree are byte-identical to the
// serial morsel-scan-under-join lowering at any worker count.

// morselProbeResult is one probe-side page's finished worker output: the
// fragment's page accounting plus the probe's scratch — the assembled join
// output and the residual-predicate meter — and the raw match count:
// everything the coordinator needs to replay the serial probe's charges
// without redoing its work.
type morselProbeResult struct {
	res     *morselResult
	n       int           // probe rows surviving the fragment
	ps      *probeScratch // nil when n == 0
	matches int
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
// table. The scratch a page is probed with crosses to the coordinator with
// the output in it, and comes back through j.spare once the coordinator's
// consumer is done with that output, so a steady probe allocates no output
// vectors. No simulated-machine access.
func (j *hashJoinOp) probeWork(run storage.MorselRun, src *storage.MorselSource, emit func(morselItem) bool) {
	var ws fragScratch
	for idx := run.Start; idx < run.End; idx++ {
		res := j.probeFrag.run(idx, src.Page(idx), &ws)
		it := &morselProbeResult{res: res, n: res.batch.Len()}
		if it.n > 0 {
			if it.ps = j.spare.get(); it.ps == nil {
				it.ps = &probeScratch{out: expr.NewBatch(j.schema.NumCols())}
			}
			it.matches = j.probeBatch(&res.batch, it.ps)
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
	if j.lent != nil {
		// The batch handed out last time was valid until this call.
		j.spare.put(j.lent)
		j.lent = nil
	}
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
		ctx.ChargeExpr(&r.ps.meter)
		if r.ps.out.Len() > 0 {
			j.lent = r.ps
			return r.ps.out, nil
		}
		j.spare.put(r.ps)
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
