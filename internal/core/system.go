// Package core is ecoDB's public control layer — the paper's contribution:
// treating energy as a first-class query-processing metric. It provides
//
//   - operating-point Settings (PVC: FSB underclocking × voltage downgrade),
//   - measured tradeoff curves between response time and energy (the
//     machinery that generates the paper's Figure 1),
//   - RunQED, which runs one held batch the QED way (multi-query merge
//     and client-side split, or a shared pass when the batch won't merge),
//   - an SLA-constrained operating-point Advisor and a mid-flight adaptive
//     controller (future-work items §1 sketches),
//   - the analytic QED response-time model (§4's "simple analytical
//     model").
package core

import (
	"fmt"

	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/meter"
	"ecodb/internal/sim"
	"ecodb/internal/workload"
)

// System bundles a simulated machine, a database engine bound to it, and
// the paper's measurement instruments.
type System struct {
	Machine *system.Machine
	Engine  *engine.Engine
	Sampler *meter.GUISampler
	// Runs is how many times MeasureWorkload repeats a workload before
	// Reduce discards the extremes (the paper's five).
	Runs int
}

// NewSystem assembles the paper's SUT with an engine of the given profile
// and the paper's measurement methodology (1 Hz GUI sampling, five runs
// per point). The sampler's phase varies per run so Reduce's
// discard-extremes step has real work to do.
func NewSystem(prof engine.Profile) *System {
	m := system.NewSUT()
	s := &System{
		Machine: m,
		Engine:  engine.New(prof, m),
		Sampler: meter.NewGUISampler(),
		Runs:    5,
	}
	s.Sampler.Phase = sim.NewRNG(prof.Seed ^ 0xfade)
	return s
}

// Measurement is one measured operating point: the paper's per-workload
// record of response time, CPU energy (as the GUI-sampled methodology
// reports it), and supporting channels.
type Measurement struct {
	Setting Setting
	// Time is the workload response time.
	Time sim.Duration
	// CPUEnergy is measured the paper's way: 1 Hz sampled mean wattage ×
	// execution time.
	CPUEnergy energy.Joules
	// CPUEnergyExact is the exact trace integral (what a better
	// instrument would read).
	CPUEnergyExact energy.Joules
	// DiskEnergy sums the drive's 5 V and 12 V lines.
	DiskEnergy energy.Joules
	// WallEnergy is the whole-system wall draw including PSU loss.
	WallEnergy energy.Joules
	// MeanVoltage and MeanFreqGHz are the monitored busy-time averages
	// (paper §3.4 measures these to build the theoretical EDP).
	MeanVoltage energy.Volts
	MeanFreqGHz float64
}

// EDP returns the measurement's energy-delay product on the GUI-sampled
// CPU energy, the paper's primary combined metric.
func (m Measurement) EDP() energy.EDP {
	return energy.EDPOf(m.CPUEnergy, m.Time.Seconds())
}

// TheoreticalEDP returns V²/F from the monitored voltage and frequency —
// proportional to the paper's §3.4 model EDP = CV²/F.
func (m Measurement) TheoreticalEDP() float64 {
	if m.MeanFreqGHz == 0 {
		return 0
	}
	v := float64(m.MeanVoltage)
	return v * v / m.MeanFreqGHz
}

func (m Measurement) String() string {
	return fmt.Sprintf("%-22s T=%v cpu=%v (exact %v) disk=%v wall=%v V̄=%.3f F̄=%.2fGHz",
		m.Setting, m.Time, m.CPUEnergy, m.CPUEnergyExact, m.DiskEnergy, m.WallEnergy,
		float64(m.MeanVoltage), m.MeanFreqGHz)
}

// MeasureOnce applies the setting's tuner profile, then Measures run.
func (s *System) MeasureOnce(setting Setting, run func()) Measurement {
	s.Machine.Tuner().Apply(setting.TunerProfile())
	m := s.Measure(run)
	m.Setting = setting
	return m
}

// Measure executes run and measures the window with every instrument. It
// leaves the machine's operating point as it finds it.
func (s *System) Measure(run func()) Measurement {
	clock := s.Machine.Clock
	cpuModel := s.Machine.CPU

	t0 := clock.Now()
	stats0 := cpuModel.Stats()
	run()
	t1 := clock.Now()
	stats1 := cpuModel.Stats()

	busy := stats1.Busy - stats0.Busy
	var vMean energy.Volts
	var fMean float64
	if busy > 0 {
		// Undo the cumulative averaging to recover this window's means.
		vMean = energy.Volts((float64(stats1.MeanVoltage)*stats1.Busy.Seconds() -
			float64(stats0.MeanVoltage)*stats0.Busy.Seconds()) / busy.Seconds())
		fMean = (stats1.MeanFreqGHz*stats1.Busy.Seconds() -
			stats0.MeanFreqGHz*stats0.Busy.Seconds()) / busy.Seconds()
	}

	return Measurement{
		Time:           t1.Sub(t0),
		CPUEnergy:      s.Sampler.Measure(cpuModel.Trace(), t0, t1),
		CPUEnergyExact: cpuModel.Trace().Energy(t0, t1),
		DiskEnergy:     s.Machine.Disk.Energy(t0, t1),
		WallEnergy:     s.Machine.WallEnergy(t0, t1),
		MeanVoltage:    vMean,
		MeanFreqGHz:    fMean,
	}
}

// MeasureWorkload applies the setting's tuner profile, measures Runs
// sequential executions of the workload, and Reduces them. It panics if
// Runs is not positive.
func (s *System) MeasureWorkload(setting Setting, queries []workload.Query) Measurement {
	if s.Runs < 1 {
		panic(fmt.Sprintf("core: MeasureWorkload needs at least one run, have %d", s.Runs))
	}
	s.Machine.Tuner().Apply(setting.TunerProfile())
	reps := make([]Measurement, s.Runs)
	for i := range reps {
		reps[i] = s.Measure(func() {
			workload.RunSequential(s.Engine, s.Machine.Clock, queries)
		})
	}
	m := Reduce(reps)
	m.Setting = setting
	return m
}

// Reduce is the paper's §3.1 repetition rule: "each workload is run five
// times; the top and bottom readings are discarded and the middle three
// averaged". From three runs up it discards the first run with the lowest
// CPU energy and the first with the highest — or, when every run reads the
// same energy, the first and the last run — and averages every field over
// the runs it keeps, in run order. The result carries the first run's
// Setting; no runs reduce to the zero Measurement.
func Reduce(reps []Measurement) Measurement {
	if len(reps) == 0 {
		return Measurement{}
	}
	kept := reps
	if len(reps) >= 3 {
		lo, hi := 0, 0
		for i, m := range reps {
			if m.CPUEnergy < reps[lo].CPUEnergy {
				lo = i
			}
			if m.CPUEnergy > reps[hi].CPUEnergy {
				hi = i
			}
		}
		if lo == hi {
			hi = len(reps) - 1
		}
		kept = make([]Measurement, 0, len(reps)-2)
		for i, m := range reps {
			if i != lo && i != hi {
				kept = append(kept, m)
			}
		}
	}
	out := Measurement{Setting: reps[0].Setting}
	n := float64(len(kept))
	for _, m := range kept {
		out.Time += m.Time / sim.Duration(n)
		out.CPUEnergy += energy.Joules(float64(m.CPUEnergy) / n)
		out.CPUEnergyExact += energy.Joules(float64(m.CPUEnergyExact) / n)
		out.DiskEnergy += energy.Joules(float64(m.DiskEnergy) / n)
		out.WallEnergy += energy.Joules(float64(m.WallEnergy) / n)
		out.MeanVoltage += energy.Volts(float64(m.MeanVoltage) / n)
		out.MeanFreqGHz += m.MeanFreqGHz / n
	}
	return out
}
