package opt

import (
	"math"
	"testing"

	"ecodb/internal/exec"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/sim"
)

// addend is one Charge call.
type addend struct {
	kind   cpu.WorkKind
	cycles float64
}

// addends records the sequence a charge function emits.
type addends []addend

func (a *addends) Charge(kind cpu.WorkKind, cycles float64) { *a = append(*a, addend{kind, cycles}) }

// TestChargeFunctionsFeedExecutorAndEstimateAlike drives every
// exec.CostModel charge function into the three things that accumulate one —
// a recorder, the executor's Ctx, the estimate's cycles — and requires the
// recorded addends to be the formula written out here, in this order, and
// both accumulators to hold exactly their left-to-right per-kind sums. The
// constants are distinct primes, so a swapped or doubled constant shows.
func TestChargeFunctionsFeedExecutorAndEstimateAlike(t *testing.T) {
	m := exec.CostModel{
		ScanTupleCycles: 3, ScanTupleStallCycles: 5, PageStreamCyclesPerKB: 7,
		BuildCycles: 11, BuildStallCycles: 13, ProbeCycles: 17, ProbeStallCycles: 19, MatchCycles: 23,
		AggCycles: 29, AggStallCycles: 31, SortCmpCycles: 37, ZoneCheckCycles: 41,
		ResultRowCycles: 43, ResultKBCycles: 47, ClientRowCycles: 53,
		ClientGCPerMRow: 59, ClientGCSaturationRows: 2e6, ExprCycleMultiple: 2.5,
	}
	const C, S, T = cpu.Compute, cpu.MemStall, cpu.Stream
	for _, tc := range []struct {
		name   string
		charge func(exec.Charger)
		want   addends
	}{
		{"PageStream", func(to exec.Charger) { m.PageStream(to, 8191) }, addends{{T, 7 * 8191.0 / 1024}}},
		{"ZoneCheck", func(to exec.Charger) { m.ZoneCheck(to, 6) }, addends{{C, 41 * 6}}},
		{"ScanTuples", func(to exec.Charger) { m.ScanTuples(to, 100) }, addends{{C, 3 * 100}, {S, 5 * 100}}},
		{"Expr", func(to exec.Charger) { m.Expr(to, 90) }, addends{{C, 90 * 2.5}}},
		{"JoinBuild", func(to exec.Charger) { m.JoinBuild(to, 10) }, addends{{C, 11 * 10}, {S, 13 * 10}}},
		{"JoinProbe", func(to exec.Charger) { m.JoinProbe(to, 10, 4) }, addends{{C, 17 * 10}, {S, 19 * 10}, {C, 23 * 4}}},
		{"AggFold", func(to exec.Charger) { m.AggFold(to, 10) }, addends{{C, 29 * 10}, {S, 31 * 10}}},
		{"AggEmit", func(to exec.Charger) { m.AggEmit(to, 3) }, addends{{C, 29 * 3}}},
		{"Sort", func(to exec.Charger) { m.Sort(to, 1000) },
			addends{{C, 37 * 1000 * math.Log2(1000)}, {S, 0.25 * 37 * 1000 * math.Log2(1000)}}},
		{"Sort of one row", func(to exec.Charger) { m.Sort(to, 1) }, nil},
		{"Result", func(to exec.Charger) { m.Result(to, 1000, 30000, 50) },
			addends{{T, 43 * 1000}, {T, 47 * 30000.0 / 1024}, {S, 53 * 1000 * (1 + 59*50000.0/1e6)}}},
		{"Result past GC saturation", func(to exec.Charger) { m.Result(to, 1e5, 0, 50) },
			addends{{T, 43 * 1e5}, {T, 0}, {S, 53 * 1e5 * (1 + 59*2e6/1e6)}}},
	} {
		var got addends
		tc.charge(&got)
		if len(got) != len(tc.want) {
			t.Errorf("%s: emitted %v, want %v", tc.name, got, tc.want)
			continue
		}
		var sums [3]float64
		for i, a := range got {
			if a != tc.want[i] {
				t.Errorf("%s: addend %d is %v, want %v", tc.name, i, a, tc.want[i])
			}
			sums[a.kind] += a.cycles
		}

		var est cycles
		tc.charge(&est)
		if est.k != sums {
			t.Errorf("%s: the estimate accumulated %v, want %v", tc.name, est.k, sums)
		}

		ctx := &exec.Ctx{CPU: cpu.New(cpu.E8500(), sim.NewClock()), Cost: m}
		tc.charge(ctx)
		ctx.Flush()
		if ran := ctx.CPU.Stats().CyclesByKind; ran != sums {
			t.Errorf("%s: the executor ran %v cycles, want %v", tc.name, ran, sums)
		}
	}
}
