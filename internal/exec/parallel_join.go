package exec

import (
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// Hash-join probe over a heap fragment.
//
// Once Open finishes, the build rows and their table are immutable, so
// probing them is embarrassingly parallel: each pump producer runs the
// probe-side fragment over its claimed pages and looks the surviving rows
// up in the shared read-only table — real lookups only, into the match
// pairs of the page's own record. The page's surviving rows cross to the
// coordinator with the pairs, as a sink-less pump's batch does, and only
// the coordinator assembles output: the residual's columns first, the
// residual over every match, then the survivors' live columns, into the
// operator's one output batch. A page in flight therefore holds index
// pairs, never a copy of its output. The coordinator takes pages back in
// page order and charges what a probe over a scan leaf charges: the page's
// scan accounting inside the pump's leaf span (morselPump.leafLabel — the
// join has no probe operator, so the pump stands in for its span), then
// the per-batch probe/match and residual charges inside the join's own
// span. Simulated results, durations, joules, and the profile span tree do
// not depend on the worker count.

// probeSink makes one producer's page function: probe the page's survivors
// against the completed table, into the pairs the record keeps from page to
// page. No simulated-machine access.
func (j *hashJoinOp) probeSink() func(*morselResult, storage.MorselRun) {
	return func(res *morselResult, _ storage.MorselRun) {
		if res.rows == 0 {
			return
		}
		if res.ps == nil {
			res.ps = new(probeScratch)
		}
		res.matches = res.ps.probe(j, &res.batch)
	}
}

// pumpNext takes probe-side pages in page order and, for pages with
// surviving probe rows, makes the probe, match, and residual charges Next
// makes per batch and assembles their output.
func (j *hashJoinOp) pumpNext(ctx *Ctx) (*expr.Batch, error) {
	for {
		res := j.pump.next(ctx)
		if res == nil {
			return nil, nil
		}
		obsv.ProbeMorsels.Inc()
		if res.rows == 0 {
			continue
		}
		if out := j.join(ctx, &res.batch, res.rows, res.matches, res.ps); out != nil {
			return out, nil
		}
	}
}
