package engine

import (
	"time"

	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
)

// This file is the engine's edge of the cost-and-energy optimizer: it
// packages the profile's cost constants and the machine's CPU model into
// an opt.Env, and, when the profile's Objective is enabled, re-plans each
// statement from the logical plan it was lowered from: Extract reads that
// origin off the plan's root, Optimize picks the choices, Lower applies
// them. A plan built node by node has no origin and runs as given.

// OptimizerEnv returns the costing environment and objective this engine
// plans under — the hook the SQL front end's EXPLAIN uses.
func (e *Engine) OptimizerEnv() (opt.Env, opt.Objective) {
	return e.optEnv(0), e.prof.Objective
}

// optEnv builds the optimizer environment. sharedQ > 1 advertises the
// shared-scan access path with that many co-attached queries expected.
func (e *Engine) optEnv(sharedQ int) opt.Env {
	return opt.Env{
		CPU:               e.mach.CPUModel(),
		Cost:              e.prof.Cost,
		Amplify:           e.prof.Amplification(),
		OverheadCycles:    e.prof.QueryOverheadCycles,
		MaxParallelism:    e.prof.Parallelism,
		SharedConcurrency: sharedQ,
	}
}

// optimize re-plans p under the profile's objective. ok is false when the
// objective is disabled or the plan cannot be optimized (no logical
// origin, no admissible lowering) — callers then execute p
// exactly as handed in, so optimization can never lose a query. For a
// profiled statement the returned PlanInfo carries the winning choice's
// whole-plan and per-operator estimates for the profile's
// estimate-vs-actual join-up; it is nil otherwise.
func (e *Engine) optimize(p plan.Node, sharedQ int, profiling bool) (plan.Node, *opt.Choice, *obsv.PlanInfo, bool) {
	if !e.prof.Objective.Enabled {
		return nil, nil, nil, false
	}
	lg, base, err := opt.Extract(p)
	if err != nil {
		return nil, nil, nil, false
	}
	env := e.optEnv(sharedQ)
	t0 := time.Now()
	ch, err := opt.Optimize(lg, base, env, e.prof.Objective)
	obsv.PlanningSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		return nil, nil, nil, false
	}
	lowered, err := lg.Lower(ch.Phys)
	if err != nil {
		return nil, nil, nil, false
	}
	var pi *obsv.PlanInfo
	if profiling {
		access := "private-scan"
		if ch.Shared {
			access = "shared-scan"
		}
		pi = &obsv.PlanInfo{
			Objective:   ch.Objective.String(),
			Parallelism: ch.Parallelism,
			Access:      access,
			EstSeconds:  ch.EstSeconds,
			EstJoules:   ch.EstJoules,
			EstRows:     ch.EstRows,
			Ops:         opt.OperatorEstimates(lg, env, ch),
		}
	}
	return lowered, ch, pi, true
}
