package cpu

import (
	"math"
	"math/rand"
	"testing"

	"ecodb/internal/sim"
)

// settings is one choice of every PVC control.
type settings struct {
	underclock float64
	downgrade  Downgrade
	loadline   Loadline
	deepIdle   bool
	capMult    float64
	stallCap   float64
}

// randCap returns no cap, a configured multiplier, or one between two.
func randCap(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return E8500().PStates[rng.Intn(len(E8500().PStates))].Multiplier
	}
	return 6 + 4*rng.Float64()
}

func randSettings(rng *rand.Rand) settings {
	return settings{
		underclock: 0.3 * rng.Float64(),
		downgrade:  Downgrade(rng.Intn(3)),
		loadline:   Loadline(rng.Intn(2)),
		deepIdle:   rng.Intn(2) == 1,
		capMult:    randCap(rng),
		stallCap:   randCap(rng),
	}
}

// apply sets every control of c to s through its setter.
func (s settings) apply(c *CPU) {
	c.SetUnderclock(s.underclock)
	c.SetDowngrade(s.downgrade)
	c.SetLoadline(s.loadline)
	c.SetDeepIdle(s.deepIdle)
	c.SetMultiplierCap(s.capMult)
	c.SetStallMultiplierCap(s.stallCap)
}

// TestRunMatchesEstimates requires the optimizer's estimates to be what Run
// bills: for random settings, every work kind and every parallelism, Run's
// duration is EstimateSeconds and the segment's trace energy is
// EstimateEnergy, bit for bit, whatever parallelism the CPU is then set to.
func TestRunMatchesEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0b5e))
	for caseNo := 0; caseNo < 200; caseNo++ {
		s := randSettings(rng)
		cycles := 1 + 1e9*rng.Float64()
		for kind := Compute; kind < numKinds; kind++ {
			for par := 1; par <= E8500().Cores; par++ {
				clock := sim.NewClock()
				c := New(E8500(), clock)
				s.apply(c)
				c.SetParallelism(par)
				start := clock.Now()
				d := c.Run(cycles, kind)
				e := c.Trace().Energy(start, clock.Now())
				// An estimate names its parallelism; the CPU's own must not matter.
				c.SetParallelism(E8500().Cores + 1 - par)
				if got, want := d.Seconds(), c.EstimateSeconds(cycles, kind, par); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d %+v, %v at parallelism %d: Run took %v s, EstimateSeconds says %v", caseNo, s, kind, par, got, want)
				}
				if got, want := float64(e), c.EstimateEnergy(cycles, kind, par); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d %+v, %v at parallelism %d: Run recorded %v J, EstimateEnergy says %v", caseNo, s, kind, par, got, want)
				}
			}
		}
	}
}

// opBits is an operating point's fields as bits, so -0 and +0 differ.
func opBits(o opPoint) [6]uint64 {
	return [6]uint64{
		math.Float64bits(o.div), math.Float64bits(o.mul), math.Float64bits(o.den),
		math.Float64bits(float64(o.watts)), math.Float64bits(o.volts), math.Float64bits(o.ghz),
	}
}

// TestSettersKeepOperatingPointsCurrent runs random sequences of setter
// calls, with work between them, and after each call requires every
// operating point and the idle draw to equal, bit for bit, those a fresh
// CPU computes from the same settings. Every setter but the stall cap's
// records the idle draw at once; the stall cap, which cannot move it,
// leaves the trace alone.
func TestSettersKeepOperatingPointsCurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ab1e))
	for seq := 0; seq < 100; seq++ {
		c := New(E8500(), sim.NewClock())
		for step := 0; step < 30; step++ {
			s := randSettings(rng)
			op := rng.Intn(8)
			switch op {
			case 0:
				c.SetUnderclock(s.underclock)
			case 1:
				c.SetDowngrade(s.downgrade)
			case 2:
				c.SetLoadline(s.loadline)
			case 3:
				c.SetDeepIdle(s.deepIdle)
			case 4:
				c.SetMultiplierCap(s.capMult)
			case 5:
				// A draw recorded beside Run, as the firmware spin loop
				// records one, stays in force: the stall cap records nothing.
				c.Trace().Set(c.clock.Now(), 1)
				c.SetStallMultiplierCap(s.stallCap)
			case 6:
				c.SetParallelism(1 + rng.Intn(c.Config().Cores))
			case 7:
				c.Run(1e6*rng.Float64(), WorkKind(rng.Intn(int(numKinds))))
			}

			fresh := New(E8500(), sim.NewClock())
			fresh.underclock, fresh.downgrade, fresh.loadline = c.underclock, c.downgrade, c.loadline
			fresh.deepIdle, fresh.capMult, fresh.stallCap = c.deepIdle, c.capMult, c.stallCap
			fresh.retune()
			for i := range c.ops {
				for kind := range c.ops[i] {
					if got, want := opBits(c.ops[i][kind]), opBits(fresh.ops[i][kind]); got != want {
						t.Fatalf("sequence %d step %d (op %d): %v at parallelism %d is %+v, a fresh recompute %+v",
							seq, step, op, WorkKind(kind), i+1, c.ops[i][kind], fresh.ops[i][kind])
					}
				}
			}
			if math.Float64bits(float64(c.idleW)) != math.Float64bits(float64(fresh.idleW)) {
				t.Fatalf("sequence %d step %d (op %d): idle draw %v, a fresh recompute %v", seq, step, op, c.idleW, fresh.idleW)
			}
			if op == 5 && c.Trace().Last() != 1 {
				t.Fatalf("sequence %d step %d: the stall cap recorded %v", seq, step, c.Trace().Last())
			}
			if op < 5 && c.Trace().Last() != c.idleW {
				t.Fatalf("sequence %d step %d (op %d): trace draws %v, the idle draw is %v", seq, step, op, c.Trace().Last(), c.idleW)
			}
		}
	}
}
