package energy

import (
	"fmt"
	"sort"

	"ecodb/internal/sim"
)

// Trace records the power drawn by one component as a piecewise-constant
// function of virtual time. Components append steps as their power state
// changes; meters integrate or sample the trace afterwards.
//
// The zero value is an empty trace drawing 0 W.
type Trace struct {
	steps []step
}

type step struct {
	at sim.Time
	w  Watts
}

// Set records that the component draws w watts from instant t onward.
// Instants must be appended in non-decreasing order; Set panics otherwise,
// because out-of-order power events indicate a simulation bug.
func (tr *Trace) Set(t sim.Time, w Watts) {
	if n := len(tr.steps); n > 0 {
		last := tr.steps[n-1]
		if t < last.at {
			panic(fmt.Sprintf("energy: trace step at %v before previous step %v", t, last.at))
		}
		if t == last.at {
			// Same-instant update supersedes the previous step.
			tr.steps[n-1].w = w
			return
		}
		if last.w == w {
			return // no change; keep the trace compact
		}
	}
	tr.steps = append(tr.steps, step{at: t, w: w})
}

// At returns the power drawn at instant t. Before the first step the trace
// draws 0 W.
func (tr *Trace) At(t sim.Time) Watts {
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].at > t })
	if i == 0 {
		return 0
	}
	return tr.steps[i-1].w
}

// Energy integrates the trace between t0 and t1, exactly.
func (tr *Trace) Energy(t0, t1 sim.Time) Joules {
	if t1 <= t0 || len(tr.steps) == 0 {
		return 0
	}
	var e Joules
	// Find first step at or after t0.
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].at > t0 })
	cur := t0
	var w Watts
	if i > 0 {
		w = tr.steps[i-1].w
	}
	for ; i < len(tr.steps) && tr.steps[i].at < t1; i++ {
		e += w.For(tr.steps[i].at.Sub(cur).Seconds())
		cur = tr.steps[i].at
		w = tr.steps[i].w
	}
	e += w.For(t1.Sub(cur).Seconds())
	return e
}

// MeanPower returns the exact average power between t0 and t1.
func (tr *Trace) MeanPower(t0, t1 sim.Time) Watts {
	d := t1.Sub(t0).Seconds()
	if d <= 0 {
		return 0
	}
	return Watts(float64(tr.Energy(t0, t1)) / d)
}

// Sample returns instantaneous power readings every interval seconds in
// [t0, t1), mimicking a sensor GUI that refreshes periodically (the ASUS
// 6-Engine display refreshes about once per second). The reading at each
// sample instant is the instantaneous power, not an average — exactly the
// quantization the paper's methodology suffers from.
func (tr *Trace) Sample(t0, t1 sim.Time, interval sim.Duration) []Watts {
	if interval <= 0 {
		panic("energy: non-positive sample interval")
	}
	var out []Watts
	for t := t0; t < t1; t = t.Add(interval) {
		out = append(out, tr.At(t))
	}
	return out
}

// Steps returns the number of recorded power steps (for tests).
func (tr *Trace) Steps() int { return len(tr.steps) }

// Last returns the power of the most recent step, or 0 for an empty trace.
func (tr *Trace) Last() Watts {
	if len(tr.steps) == 0 {
		return 0
	}
	return tr.steps[len(tr.steps)-1].w
}

// DiscardBefore drops the history before instant t, keeping the step in
// force at t: At and Energy answer exactly as before for instants from t
// onward, while earlier instants now read 0 W. A long-running owner calls
// it once nothing will ask about the past again, so the trace's footprint
// follows the window still of interest, not the component's lifetime. The
// backing array is kept for the steps to come.
func (tr *Trace) DiscardBefore(t sim.Time) {
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].at > t })
	if i <= 1 {
		return // nothing recorded before the step in force at t
	}
	n := copy(tr.steps, tr.steps[i-1:])
	tr.steps = tr.steps[:n]
}

// Reset discards all recorded steps.
func (tr *Trace) Reset() { tr.steps = tr.steps[:0] }
