// Package meter implements the paper's measurement instruments (§3.1):
//
//   - CPU power is read from the motherboard's EPU sensor through a GUI
//     that refreshes about once per second, so "CPU joules was recorded as
//     the average sampled wattage multiplied by the workload execution
//     time".
//   - Disk energy is measured by clamping current meters on the drive's
//     5 V and 12 V supply lines and summing the two energies.
//
// The paper's repetition rule — five runs, the top and bottom readings
// discarded, the middle three averaged — is core.Reduce.
package meter

import (
	"ecodb/internal/energy"
	"ecodb/internal/sim"
)

// GUISampler measures a power trace the way the paper samples the ASUS
// 6-Engine display: instantaneous readings on a fixed refresh interval,
// energy = mean reading × duration. A phase RNG (optional) randomizes the
// sampling phase per measurement, modelling the uncontrolled alignment of
// the GUI refresh with the workload.
type GUISampler struct {
	// Interval is the refresh period; the 6-Engine refreshes ~1 s.
	Interval sim.Duration
	// Phase, if non-nil, draws a random initial offset in [0, Interval)
	// for each measurement.
	Phase *sim.RNG
}

// NewGUISampler returns a sampler with the paper's ~1 s refresh.
func NewGUISampler() *GUISampler { return &GUISampler{Interval: sim.Second} }

// Measure estimates the energy of trace over [t0, t1] from periodic
// instantaneous samples. Windows shorter than one interval fall back to a
// single reading at t0.
func (g *GUISampler) Measure(tr *energy.Trace, t0, t1 sim.Time) energy.Joules {
	if t1 <= t0 {
		return 0
	}
	iv := g.Interval
	if iv <= 0 {
		iv = sim.Second
	}
	start := t0
	if g.Phase != nil {
		start = t0.Add(sim.Duration(g.Phase.Float64() * float64(iv)))
	}
	samples := tr.Sample(start, t1, iv)
	if len(samples) == 0 {
		samples = []energy.Watts{tr.At(t0)}
	}
	var sum float64
	for _, w := range samples {
		sum += float64(w)
	}
	mean := sum / float64(len(samples))
	return energy.Watts(mean).For(t1.Sub(t0).Seconds())
}

// LineMeter integrates energy on a supply line exactly, like the current
// probes the paper attaches to the disk's 5 V and 12 V lines.
type LineMeter struct {
	Line *energy.Trace
}

// Energy returns the line's energy over [t0, t1].
func (l LineMeter) Energy(t0, t1 sim.Time) energy.Joules {
	return l.Line.Energy(t0, t1)
}

// SumLines totals the energy measured on several lines over [t0, t1] —
// the paper "summed up the energy consumption to compute the overall
// energy consumption of the hard disk drive".
func SumLines(t0, t1 sim.Time, lines ...*energy.Trace) energy.Joules {
	var e energy.Joules
	for _, tr := range lines {
		e += tr.Energy(t0, t1)
	}
	return e
}
