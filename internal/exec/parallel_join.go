package exec

import (
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
)

// Hash-join probe over a heap fragment.
//
// Once Open finishes, the build rows and their table are immutable, so
// probing them is embarrassingly parallel: each pump producer runs the
// probe-side fragment over its claimed pages and probes the surviving rows
// against the shared read-only table with a probeScratch of the page's own
// — real lookups, output assembly, and residual evaluation all happen in
// producer context. The coordinator takes finished pages back in page order
// and charges what a probe over a scan leaf charges: the page's scan
// accounting inside the pump's leaf span (morselPump.leafLabel — the join
// has no probe operator, so the pump stands in for its span), then the
// per-batch probe/match charges inside the join's own span. Simulated
// results, durations, joules, and the profile span tree do not depend on
// the worker count.

// probeSink makes one producer's page function: probe the page's survivors
// against the completed table. The scratch a page is probed with crosses to
// the coordinator with the output in it, and comes back through j.spare
// once the coordinator's consumer is done with that output, so a steady
// probe allocates no output vectors. No simulated-machine access.
func (j *hashJoinOp) probeSink() func(*morselResult, bool) {
	return func(res *morselResult, _ bool) {
		if res.rows == 0 {
			return
		}
		if res.ps = j.spare.get(); res.ps == nil {
			res.ps = &probeScratch{out: expr.NewBatch(j.schema.NumCols())}
		}
		res.matches = j.probeBatch(&res.batch, res.ps)
	}
}

// pumpNext takes probe-side pages in page order and, for pages with
// surviving probe rows, makes the probe, match, and residual charges Next
// makes per batch.
func (j *hashJoinOp) pumpNext(ctx *Ctx) (*expr.Batch, error) {
	if j.lent != nil {
		// The batch handed out last time was valid until this call.
		j.spare.put(j.lent)
		j.lent = nil
	}
	for {
		res := j.pump.next(ctx)
		if res == nil {
			return nil, nil
		}
		obsv.ProbeMorsels.Inc()
		if res.rows == 0 {
			continue
		}
		ctx.Cost.JoinProbe(ctx, float64(res.rows), float64(res.matches))
		ctx.ChargeExpr(&res.ps.meter)
		if res.ps.out.Len() > 0 {
			j.lent = res.ps
			return res.ps.out, nil
		}
		j.spare.put(res.ps)
	}
}
