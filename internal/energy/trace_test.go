package energy

import (
	"strings"
	"testing"

	"ecodb/internal/sim"
)

// A chain of same-instant updates must collapse to one step holding the
// last value — each supersede replaces the previous, never appends.
func TestTraceSameInstantSupersedeChain(t *testing.T) {
	var tr Trace
	tr.Set(0, 5)
	tr.Set(3, 10)
	tr.Set(3, 20)
	tr.Set(3, 30)
	tr.Set(3, 40)
	if tr.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2 (chain collapsed)", tr.Steps())
	}
	if got := tr.At(3); got != 40 {
		t.Fatalf("At(3) = %v, want 40 (last write wins)", got)
	}
	// Energy must integrate the final value only: 3s*5W + 2s*40W.
	if got := tr.Energy(0, 5); got != 95 {
		t.Fatalf("Energy(0,5) = %v, want 95", got)
	}
}

// Superseding a step back to the power of the step before it leaves two
// steps with equal power — legal, just not compact. Energy must still be
// exact across the redundant boundary.
func TestTraceSupersedeToEqualPower(t *testing.T) {
	var tr Trace
	tr.Set(0, 10)
	tr.Set(4, 25)
	tr.Set(4, 10) // back to the preceding power, via the supersede path
	if got := tr.At(4); got != 10 {
		t.Fatalf("At(4) = %v, want 10", got)
	}
	if got := tr.Energy(0, 8); got != 80 {
		t.Fatalf("Energy(0,8) = %v, want 80 (8s at a constant 10W)", got)
	}
}

// At an instant exactly on a step boundary the new power already applies:
// steps are half-open intervals [at, next).
func TestTraceAtExactBoundary(t *testing.T) {
	var tr Trace
	tr.Set(0, 7)
	tr.Set(2, 11)
	tr.Set(6, 13)
	for _, tc := range []struct {
		at   sim.Time
		want Watts
	}{
		{0, 7}, {2, 11}, {6, 13},
	} {
		if got := tr.At(tc.at); got != tc.want {
			t.Fatalf("At(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

// Energy windows whose endpoints land exactly on step boundaries must
// charge each interval once — no double counting at the seams.
func TestTraceEnergyBoundaryWindows(t *testing.T) {
	var tr Trace
	tr.Set(0, 10)
	tr.Set(2, 20)
	tr.Set(5, 30)
	if got := tr.Energy(2, 5); got != 60 {
		t.Fatalf("Energy(2,5) = %v, want 60 (3s at 20W)", got)
	}
	whole := tr.Energy(0, 8)
	split := tr.Energy(0, 2) + tr.Energy(2, 5) + tr.Energy(5, 8)
	if whole != split {
		t.Fatalf("Energy additivity at boundaries: whole=%v split=%v", whole, split)
	}
}

// Set must panic on a time regression, and the message must name both
// instants — out-of-order power events mean the simulation itself is
// broken, so the panic has to be debuggable.
func TestTraceRegressionPanicMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("regressing Set did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "before previous step") {
			t.Fatalf("panic %v does not describe the regression", r)
		}
	}()
	var tr Trace
	tr.Set(10, 1)
	tr.Set(9.999, 2)
}

// Dropping an equal-power Set must not lose the instant for later,
// different-power writes: a new value at the deduped instant opens a fresh
// step there rather than rewriting history back to the surviving step.
func TestTraceSetAfterDedupOpensNewStep(t *testing.T) {
	var tr Trace
	tr.Set(0, 10)
	tr.Set(5, 10) // deduped: no new step, trace still one step at t=0
	tr.Set(5, 99) // different power at the deduped instant: a real step
	if tr.Steps() != 2 {
		t.Fatalf("Steps() = %d, want 2", tr.Steps())
	}
	if got := tr.At(1); got != 10 {
		t.Fatalf("At(1) = %v, want 10 (history before the new step unchanged)", got)
	}
	if got := tr.At(5); got != 99 {
		t.Fatalf("At(5) = %v, want 99", got)
	}
	if got := tr.Energy(0, 10); got != 545 {
		t.Fatalf("Energy(0,10) = %v, want 545 (5s*10W + 5s*99W)", got)
	}
}

func TestTraceDiscardBeforeKeepsTheFuture(t *testing.T) {
	build := func() *Trace {
		var tr Trace
		for i := 0; i < 10; i++ {
			tr.Set(sim.Time(0).Add(sim.Duration(i)*sim.Second), Watts(10+i))
		}
		return &tr
	}
	at := func(s float64) sim.Time { return sim.Time(0).Add(sim.Duration(s * float64(sim.Second))) }

	for _, cut := range []float64{0, 0.5, 3, 3.5, 9, 12} {
		full, cutTr := build(), build()
		cutTr.DiscardBefore(at(cut))
		for _, from := range []float64{cut, cut + 0.25, cut + 2} {
			if got, want := cutTr.At(at(from)), full.At(at(from)); got != want {
				t.Fatalf("cut %v: At(%v) = %v, want %v", cut, from, got, want)
			}
			if got, want := cutTr.Energy(at(from), at(from+4.5)), full.Energy(at(from), at(from+4.5)); got != want {
				t.Fatalf("cut %v: Energy(%v, +4.5s) = %v, want %v", cut, from, got, want)
			}
		}
		if cutTr.Last() != full.Last() {
			t.Fatalf("cut %v: Last = %v, want %v", cut, cutTr.Last(), full.Last())
		}
		// Appending continues exactly as on the full trace.
		full.Set(at(20), 99)
		cutTr.Set(at(20), 99)
		if got, want := cutTr.Energy(at(cut), at(25)), full.Energy(at(cut), at(25)); got != want {
			t.Fatalf("cut %v: Energy after a further step = %v, want %v", cut, got, want)
		}
	}

	tr := build()
	tr.DiscardBefore(at(7.5))
	if tr.Steps() != 3 { // the step in force at 7.5 s, then 8 s and 9 s
		t.Fatalf("Steps after DiscardBefore(7.5s) = %d, want 3", tr.Steps())
	}
	if tr.At(at(2)) != 0 {
		t.Fatalf("discarded history reads %v, want 0", tr.At(at(2)))
	}
}
