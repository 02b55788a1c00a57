package opt

import (
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
)

// cycles accumulates a candidate plan's estimated work by kind. It is the
// estimate's exec.Charger: every addend comes from the exec.CostModel
// function the executor charges the same event with, fed predicted rows
// and bytes where the executor feeds counted ones. passStream and passZone
// are the subsets of Stream and Compute cycles that a shared circular scan
// fires once per PASS rather than once per query — the portion that
// amortizes across co-attached queries when the shared access path is
// chosen.
type cycles struct {
	k          [3]float64 // indexed by cpu.WorkKind
	passStream float64
	passZone   float64
}

// Charge implements exec.Charger. Amplification is not applied here: it
// scales whole per-kind sums at conversion (timeEnergy).
func (c *cycles) Charge(kind cpu.WorkKind, v float64) { c.k[kind] += v }

func (c *cycles) addAll(o cycles) {
	for i := range c.k {
		c.k[i] += o.k[i]
	}
	c.passStream += o.passStream
	c.passZone += o.passZone
}

// total sums every bucket — a deterministic tiebreak for frontier
// overflow, not a cost.
func (c cycles) total() float64 {
	return c.k[0] + c.k[1] + c.k[2]
}

// dominatedBy reports component-wise domination (≤ in every bucket, and
// shared-amortizable work separated so domination holds for every access
// path and parallelism the scorer might try later).
func (c cycles) dominatedBy(o cycles) bool {
	const eps = 1e-9
	for i := range c.k {
		if o.k[i] > c.k[i]*(1+eps)+eps {
			return false
		}
	}
	return o.passStream <= c.passStream*(1+eps)+eps && o.passZone <= c.passZone*(1+eps)+eps
}

// fresh returns the estimate's one accumulator, zeroed. The charge
// functions take their accumulator as an interface, which would move a local
// cycles to the heap on every call of the enumeration's inner loop; this one
// already lives there. Each cost function fills it and returns a copy, so
// one is in use at a time.
func (e *est) fresh() *cycles {
	e.acc = cycles{}
	return &e.acc
}

// exprCost estimates evaluating each of exprs over rows input rows.
func (e *est) exprCost(c *cycles, rows float64, exprs ...expr.Expr) {
	for _, ex := range exprs {
		e.env.Cost.Expr(c, expr.EvalCycles(ex)*rows)
	}
}

// conjCost estimates evaluating conjuncts conj over rows input rows.
func (e *est) conjCost(c *cycles, rows float64, conj []int) {
	for _, i := range conj {
		e.exprCost(c, rows, e.lg.Conjuncts[i].Pred)
	}
}

// scanCost estimates table t's scan, absorbing the conjuncts the plan's
// placement rule gives it when push is set (plan.Logical.ScanConjuncts):
// page streaming (pass-amortizable), zone-map consults when a filter is
// pushed, per-tuple interpretation, and predicate evaluation over every
// input row. Page pruning is not assumed (a conservative upper bound:
// stats cannot tell how clustered a predicate is), so estimates are
// comparable across candidates rather than absolute.
func (e *est) scanCost(t int, push bool) opEst {
	e.conj = e.conj[:0]
	if push {
		e.conj = e.lg.ScanConjuncts(e.conj, t)
	}
	filtered := len(e.conj) > 0
	st := e.stats[t]
	rows := float64(st.Rows)
	c := e.fresh()

	// The pass-fired charges come first, so each is still alone in its bucket
	// when it is copied out.
	e.env.Cost.PageStream(c, float64(st.Bytes))
	c.passStream = c.k[cpu.Stream]
	if filtered {
		e.env.Cost.ZoneCheck(c, float64(st.Pages))
		c.passZone = c.k[cpu.Compute]
	}

	e.env.Cost.ScanTuples(c, rows)
	e.conjCost(c, rows, e.conj)

	outRows := rows
	for _, i := range e.conj {
		outRows *= e.conjSel[i]
	}
	return opEst{kind: obsv.KindScan, rows: max(outRows, minRows), cyc: *c, table: t, flag: filtered}
}

// joinCost estimates one hash join: build-side insertion, probe-side
// lookups, match emission, and residual conjuncts' evaluation over
// candidate matches.
func (e *est) joinCost(buildRows, probeRows, matches float64, residual []int) cycles {
	c := e.fresh()
	e.env.Cost.JoinBuild(c, buildRows)
	e.env.Cost.JoinProbe(c, probeRows, matches)
	e.conjCost(c, matches, residual)
	return *c
}

// aggCost estimates hash aggregation over inRows input rows emitting
// groups results.
func (e *est) aggCost(inRows, groups float64) cycles {
	c := e.fresh()
	e.env.Cost.AggFold(c, inRows)
	if e.lg.Agg != nil {
		for _, s := range e.lg.Agg.Specs {
			if s.Arg != nil {
				e.exprCost(c, inRows, s.Arg)
			}
		}
	}
	e.env.Cost.AggEmit(c, groups)
	return *c
}

// evalCost estimates an operator that only evaluates exprs over rows: a
// standalone filter, a projection.
func (e *est) evalCost(rows float64, exprs ...expr.Expr) cycles {
	c := e.fresh()
	e.exprCost(c, rows, exprs...)
	return *c
}

// sortCost estimates a sort of rows rows. The worker count never changes
// it: producers only move real comparison work, and the coordinator charges
// the formula once on the total surviving row count.
func (e *est) sortCost(rows float64) cycles {
	c := e.fresh()
	e.env.Cost.Sort(c, rows)
	return *c
}

// resultCost estimates the result path (what Rows.finish charges) for rows
// rows of the output schema's estimated wire width.
func (e *est) resultCost(rows float64) cycles {
	c := e.fresh()
	e.env.Cost.Result(c, rows, rows*e.rowBytes, e.env.Amplify)
	return *c
}

// timeEnergy converts estimated cycles into simulated (seconds, joules)
// for one execution configuration: parallelism degree and access path.
//
// Private execution pays every cycle itself. Shared execution with Q
// co-attached queries amortizes the pass-fired work (page streaming, zone
// consults) to 1/Q per query for energy; for latency the queries
// time-share the processor, so the per-query response multiplies the
// non-amortized work by Q while the pass streams once. overhead is added
// to the compute cycles unamplified, as the engine charges its statement
// overhead: the whole plan passes env.OverheadCycles, one operator 0.
func (e *est) timeEnergy(c cycles, overhead float64, par int, shared bool) (secs, joules float64) {
	amp := e.env.Amplify
	q := 1.0
	if shared && e.env.SharedConcurrency > 1 {
		q = float64(e.env.SharedConcurrency)
	}
	m := e.env.CPU

	own := [3]float64{
		(c.k[cpu.Compute] - c.passZone) * amp,
		c.k[cpu.MemStall] * amp,
		(c.k[cpu.Stream] - c.passStream) * amp,
	}
	own[cpu.Compute] += overhead
	pass := [3]float64{cpu.Compute: c.passZone * amp, cpu.Stream: c.passStream * amp}

	var ownSecs float64
	for kind, cy := range own {
		k := cpu.WorkKind(kind)
		ownSecs += m.EstimateSeconds(cy, k, par)
		joules += m.EstimateEnergy(cy+pass[k]/q, k, par) // this query's share of the pass
	}
	passSecs := m.EstimateSeconds(pass[cpu.Compute], cpu.Compute, par) +
		m.EstimateSeconds(pass[cpu.Stream], cpu.Stream, par)
	secs = q*ownSecs + passSecs
	return secs, joules
}
