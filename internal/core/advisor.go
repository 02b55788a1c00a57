package core

import (
	"fmt"
	"sort"

	"ecodb/internal/sim"
	"ecodb/internal/workload"
)

// Advisor chooses operating points under a service-level agreement — the
// paper's §1 sketch: "A data center operating near peak may have no choice
// but to aim for the fastest query response time. However, when the data
// center is not operating at peak capacity it may have the option of using
// an operating point that can save energy."
type Advisor struct {
	// MaxSlowdown bounds acceptable response time as a multiple of the
	// stock time (1.10 = "at most 10% slower").
	MaxSlowdown float64
}

// Choose returns the measured point with the lowest CPU energy whose time
// ratio fits the SLA, and ok=false when only stock qualifies or no stock
// baseline exists. Ties break toward faster settings.
func (a Advisor) Choose(ms []Measurement) (best Measurement, ok bool) {
	base := stockBaseline(ms)
	if base == nil || a.MaxSlowdown < 1 {
		return Measurement{}, false
	}
	candidates := make([]Measurement, 0, len(ms))
	for _, m := range ms {
		if float64(m.Time) <= a.MaxSlowdown*float64(base.Time) {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return Measurement{}, false
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].CPUEnergy != candidates[j].CPUEnergy {
			return candidates[i].CPUEnergy < candidates[j].CPUEnergy
		}
		return candidates[i].Time < candidates[j].Time
	})
	best = candidates[0]
	return best, !best.Setting.IsStock() || len(candidates) == 1
}

// SLAFromCurve works backward from a measured tradeoff curve to the
// loosest SLA bound that unlocks each operating point — the paper's "work
// backward to create viable parameters for an SLA" remark. The result maps
// setting name to the minimum MaxSlowdown admitting it.
func SLAFromCurve(ms []Measurement) map[string]float64 {
	base := stockBaseline(ms)
	out := make(map[string]float64, len(ms))
	if base == nil || base.Time <= 0 {
		return out
	}
	for _, m := range ms {
		out[m.Setting.String()] = float64(m.Time) / float64(base.Time)
	}
	return out
}

// AdaptivePVC re-evaluates the operating point while a workload runs — the
// paper's "dynamically adapt our query plan midflight to meet our response
// time and energy goals". After each query it compares progress against a
// response-time budget: behind schedule → step toward stock; comfortably
// ahead → step toward the deepest allowed saving.
type AdaptivePVC struct {
	Sys *System
	// Ladder orders settings from most aggressive saving (index 0) to
	// stock (last). Steps move along it.
	Ladder []Setting
	// Budget is the total response-time budget for the workload.
	Budget sim.Duration
}

// Decision records one adaptation step.
type Decision struct {
	AfterQuery int
	Elapsed    sim.Duration
	Expected   sim.Duration
	Chosen     Setting
}

// Run executes the workload, adapting between queries. It returns the
// total time and the decision trace.
func (a *AdaptivePVC) Run(queries []workload.Query) (sim.Duration, []Decision) {
	if len(a.Ladder) == 0 {
		panic("core: AdaptivePVC needs a settings ladder")
	}
	clock := a.Sys.Machine.Clock
	start := clock.Now()
	level := 0 // start at the most aggressive saving
	a.Sys.Machine.Tuner().Apply(a.Ladder[level].TunerProfile())

	var decisions []Decision
	for i, q := range queries {
		a.Sys.Engine.Exec(q.Plan)
		elapsed := clock.Now().Sub(start)
		expected := a.Budget * sim.Duration(float64(i+1)/float64(len(queries)))
		switch {
		case elapsed > expected && level < len(a.Ladder)-1:
			level++ // behind: trade energy saving for speed
		case elapsed < expected*9/10 && level > 0:
			level-- // ahead: deepen savings
		}
		a.Sys.Machine.Tuner().Apply(a.Ladder[level].TunerProfile())
		decisions = append(decisions, Decision{
			AfterQuery: i + 1,
			Elapsed:    elapsed,
			Expected:   expected,
			Chosen:     a.Ladder[level],
		})
	}
	return clock.Now().Sub(start), decisions
}

func (d Decision) String() string {
	return fmt.Sprintf("after q%d: elapsed %v vs budgeted %v → %s",
		d.AfterQuery, d.Elapsed, d.Expected, d.Chosen)
}
