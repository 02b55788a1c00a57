package meter

import (
	"math"
	"testing"

	"ecodb/internal/energy"
	"ecodb/internal/sim"
)

func TestGUISamplerConstantPower(t *testing.T) {
	var tr energy.Trace
	tr.Set(0, 25)
	g := NewGUISampler()
	got := g.Measure(&tr, 0, 10)
	if math.Abs(float64(got)-250) > 1e-9 {
		t.Fatalf("constant 25W over 10s = %v, want 250J", got)
	}
}

func TestGUISamplerQuantization(t *testing.T) {
	// Power spikes to 100W for 100ms once per second, 0W otherwise:
	// exact energy is 10×0.1×100 = 100J, but samples at whole seconds
	// read the idle phase and report ≈0 — the paper methodology's
	// aliasing, reproduced.
	var tr energy.Trace
	for s := 0; s < 10; s++ {
		tr.Set(sim.Time(s)+0.5, 100)
		tr.Set(sim.Time(s)+0.6, 0)
	}
	g := NewGUISampler()
	got := g.Measure(&tr, 0, 10)
	exact := tr.Energy(0, 10)
	if math.Abs(float64(exact)-100) > 1e-9 {
		t.Fatalf("exact energy = %v, want 100J", exact)
	}
	if got != 0 {
		t.Fatalf("aliased measurement = %v, want 0 (sampler misses the spikes)", got)
	}
}

func TestGUISamplerPhaseChangesReading(t *testing.T) {
	var tr energy.Trace
	tr.Set(0, 0)
	tr.Set(0.5, 50) // power steps mid-interval
	g := NewGUISampler()
	noPhase := g.Measure(&tr, 0, 4)

	g.Phase = sim.NewRNG(3)
	withPhase := g.Measure(&tr, 0, 4)
	if noPhase == withPhase {
		t.Log("phase draw happened to land on the same grid; acceptable but unlikely")
	}
	// Either way the reading must be within the trace's power range.
	for _, v := range []energy.Joules{noPhase, withPhase} {
		if v < 0 || v > 200 {
			t.Fatalf("reading %v outside plausible [0,200J]", v)
		}
	}
}

func TestGUISamplerShortWindow(t *testing.T) {
	var tr energy.Trace
	tr.Set(0, 40)
	g := NewGUISampler()
	got := g.Measure(&tr, 0, 0.25) // shorter than one refresh
	if math.Abs(float64(got)-10) > 1e-9 {
		t.Fatalf("short window = %v, want 10J", got)
	}
}

func TestSumLines(t *testing.T) {
	var a, b energy.Trace
	a.Set(0, 2)
	b.Set(0, 3)
	if got := SumLines(0, 10, &a, &b); got != 50 {
		t.Fatalf("SumLines = %v, want 50", got)
	}
	if got := (LineMeter{Line: &a}).Energy(0, 10); got != 20 {
		t.Fatalf("LineMeter = %v, want 20", got)
	}
}
