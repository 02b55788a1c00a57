package opt

import (
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
)

// cycles accumulates a candidate plan's estimated work by kind, mirroring
// the executor's Charge sites. passStream and passZone are the subsets of
// Stream and Compute cycles that a shared circular scan fires once per
// PASS rather than once per query — the portion that amortizes across
// co-attached queries when the shared access path is chosen.
type cycles struct {
	k          [3]float64 // indexed by cpu.WorkKind
	passStream float64
	passZone   float64
}

func (c *cycles) add(kind cpu.WorkKind, v float64) { c.k[kind] += v }

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

// exprCyclesPerRow mirrors the vectorized evaluator's per-row cost accrual
// (internal/expr/batch.go) for one predicate or projection expression.
func exprCyclesPerRow(e expr.Expr) float64 {
	switch n := e.(type) {
	case expr.Col:
		return expr.CyclesColRef
	case expr.Const:
		return expr.CyclesConst
	case expr.Cmp:
		cmp := float64(expr.CyclesCompare)
		if k, ok := n.R.(expr.Const); ok && k.V.Kind == expr.KindString {
			cmp = expr.CyclesStringCmp
		}
		return exprCyclesPerRow(n.L) + exprCyclesPerRow(n.R) + cmp
	case expr.Between:
		return expr.CyclesColRef + 2*expr.CyclesCompare
	case expr.And:
		var s float64
		for _, t := range n.Terms {
			s += exprCyclesPerRow(t) + expr.CyclesLogic
		}
		return s
	case expr.Or:
		var s float64
		for _, t := range n.Terms {
			s += exprCyclesPerRow(t) + expr.CyclesLogic
		}
		return s
	case expr.Not:
		return exprCyclesPerRow(n.E) + expr.CyclesLogic
	case *expr.InHash:
		return expr.CyclesColRef + expr.CyclesHashProbe
	case expr.Arith:
		return exprCyclesPerRow(n.L) + exprCyclesPerRow(n.R) + expr.CyclesArith
	default:
		return 20
	}
}

func (e *est) exprMult() float64 {
	if m := e.env.Cost.ExprCycleMultiple; m > 0 {
		return m
	}
	return 1
}

// scanCost estimates one table scan: page streaming (pass-amortizable),
// zone-map consults when a filter is pushed, per-tuple interpretation, and
// predicate evaluation over every input row. Page pruning is not assumed
// (a conservative upper bound: stats cannot tell how clustered a predicate
// is), so estimates are comparable across candidates rather than absolute.
func (e *est) scanCost(t int, pushed []expr.Expr) (outRows float64, c cycles) {
	st := e.stats[t]
	rows := float64(st.Rows)

	stream := e.env.Cost.PageStreamCyclesPerKB * float64(st.Bytes) / 1024
	c.add(cpu.Stream, stream)
	c.passStream = stream

	if len(pushed) > 0 {
		zone := e.env.Cost.ZoneCheckCycles * float64(st.Pages)
		c.add(cpu.Compute, zone)
		c.passZone = zone
	}

	c.add(cpu.Compute, e.env.Cost.ScanTupleCycles*rows)
	c.add(cpu.MemStall, e.env.Cost.ScanTupleStallCycles*rows)

	outRows = rows
	for _, p := range pushed {
		c.add(cpu.Compute, exprCyclesPerRow(p)*e.exprMult()*rows)
		outRows *= e.sel(p)
	}
	return max(outRows, minRows), c
}

// joinCost estimates one hash join: build-side insertion, probe-side
// lookups, match emission, and residual evaluation over candidate matches.
func (e *est) joinCost(buildRows, probeRows, matches float64, residuals []expr.Expr) cycles {
	var c cycles
	c.add(cpu.Compute, e.env.Cost.BuildCycles*buildRows)
	c.add(cpu.MemStall, e.env.Cost.BuildStallCycles*buildRows)
	c.add(cpu.Compute, e.env.Cost.ProbeCycles*probeRows)
	c.add(cpu.MemStall, e.env.Cost.ProbeStallCycles*probeRows)
	c.add(cpu.Compute, e.env.Cost.MatchCycles*matches)
	for _, r := range residuals {
		c.add(cpu.Compute, exprCyclesPerRow(r)*e.exprMult()*matches)
	}
	return c
}

// aggCost estimates hash aggregation over inRows input rows emitting
// groups results.
func (e *est) aggCost(inRows, groups float64) cycles {
	var c cycles
	c.add(cpu.Compute, e.env.Cost.AggCycles*inRows)
	c.add(cpu.MemStall, e.env.Cost.AggStallCycles*inRows)
	if e.lg.Agg != nil {
		for _, s := range e.lg.Agg.Specs {
			if s.Arg != nil {
				c.add(cpu.Compute, exprCyclesPerRow(s.Arg)*e.exprMult()*inRows)
			}
		}
	}
	c.add(cpu.Compute, e.env.Cost.AggCycles*groups)
	return c
}

// sortCost estimates a sort of rows rows with the function the executor
// charges one with (exec.CostModel.SortCycles), so the estimate is exact up
// to the cardinality guess. The worker count never changes it: producers
// only move real comparison work, and the coordinator charges the formula
// once on the total surviving row count.
func (e *est) sortCost(rows float64) cycles {
	var c cycles
	compute, stall := e.env.Cost.SortCycles(rows)
	c.add(cpu.Compute, compute)
	c.add(cpu.MemStall, stall)
	return c
}

// projectCost estimates the projection expressions over rows.
func (e *est) projectCost(rows float64) cycles {
	var c cycles
	if e.lg.Project == nil {
		return c
	}
	for _, ex := range e.lg.Project.Exprs {
		c.add(cpu.Compute, exprCyclesPerRow(ex)*e.exprMult()*rows)
	}
	return c
}

// resultCost estimates the result path: server-side materialization and
// wire streaming plus the client-side per-row receive with its collector
// pressure, exactly as Rows.finish charges them.
func (e *est) resultCost(rows float64) cycles {
	var c cycles
	c.add(cpu.Stream, e.env.Cost.ResultRowCycles*rows)
	c.add(cpu.Stream, e.env.Cost.ResultKBCycles*rows*e.outRowBytes()/1024)
	gc := e.env.Cost.ClientRowFactor(rows * e.amp())
	c.add(cpu.MemStall, e.env.Cost.ClientRowCycles*rows*gc)
	return c
}

func (e *est) amp() float64 {
	if e.env.Amplify <= 0 {
		return 1
	}
	return e.env.Amplify
}

// timeEnergy converts estimated cycles into simulated (seconds, joules)
// for one execution configuration: parallelism degree and access path.
//
// Private execution pays every cycle itself. Shared execution with Q
// co-attached queries amortizes the pass-fired work (page streaming, zone
// consults) to 1/Q per query for energy; for latency the queries
// time-share the processor, so the per-query response multiplies the
// non-amortized work by Q while the pass streams once. Statement overhead
// is charged unamplified, as the engine runs it.
func (e *est) timeEnergy(c cycles, par int, shared bool) (secs, joules float64) {
	amp := e.amp()
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
	own[cpu.Compute] += e.env.OverheadCycles
	pass := [2]float64{c.passZone * amp, c.passStream * amp} // compute, stream

	var ownSecs float64
	for kind, cy := range own {
		k := cpu.WorkKind(kind)
		ownSecs += m.EstimateSeconds(cy, k, par)
		joules += m.EstimateEnergy(cy+passShare(kind, pass, q), k, par)
	}
	passSecs := m.EstimateSeconds(pass[0], cpu.Compute, par) +
		m.EstimateSeconds(pass[1], cpu.Stream, par)
	secs = q*ownSecs + passSecs
	return secs, joules
}

// passShare returns this query's amortized share of pass-fired cycles for
// the given kind.
func passShare(kind int, pass [2]float64, q float64) float64 {
	switch cpu.WorkKind(kind) {
	case cpu.Compute:
		return pass[0] / q
	case cpu.Stream:
		return pass[1] / q
	default:
		return 0
	}
}
