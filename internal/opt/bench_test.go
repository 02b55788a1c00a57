package opt_test

import (
	"testing"
	"time"

	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/tpch"
)

// BenchmarkOptimizeQ5 measures full optimization of the six-table Q5 join.
// Extract is left out: it only reads the origin Lower stamped on the plan,
// so the DP enumeration is all the engine's planning does. The bench-smoke
// CI job runs this to catch planning-cost regressions;
// TestPlanningFractionOfQ5Execution holds the budget itself.
func BenchmarkOptimizeQ5(b *testing.B) {
	e := commercialEngine(b, opt.Objective{})
	lg, base, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		b.Fatal(err)
	}
	env, _ := e.OptimizerEnv()
	obj := opt.MinimizeJoules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(lg, base, env, obj); err != nil {
			b.Fatal(err)
		}
	}
}

// planAllocsQ5 is the planning budget: allocations to extract and optimize
// Q5 — 645, all of them Optimize's, since Extract reads the plan's origin
// without allocating — plus about a tenth.
const planAllocsQ5 = 710

// TestPlanningFractionOfQ5Execution pins the optimizer's planning budget by
// what executor speed cannot move: extracting and optimizing Q5 at the
// experiments' default scale (SF 0.05 × 20, paper-equivalent 1) may
// allocate at most planAllocsQ5 times. The wall-clock share of planning in
// executing Q5 is logged, not asserted — a faster executor shrinks the
// denominator. Planning is averaged over many rounds and execution over a
// few to keep scheduler noise out of the ratio.
func TestPlanningFractionOfQ5Execution(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio needs the full experiment scale")
	}
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 20
	e := engine.New(prof, system.NewSUT())
	tpch.NewGenerator(0.05, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	e.WarmAll()
	p := tpch.Q5(e.Catalog(), "ASIA", 1994)
	env, _ := e.OptimizerEnv()
	obj := opt.MinimizeJoules()

	// Warm the catalog's statistics cache: tables compute stats once per
	// load (a hashed NDV pass), and every query planned afterwards reuses
	// them — the steady state this budget is about.
	if lg, base, err := opt.Extract(p); err != nil {
		t.Fatal(err)
	} else if _, err := opt.Optimize(lg, base, env, obj); err != nil {
		t.Fatal(err)
	}

	const planRounds = 200
	start := time.Now()
	allocs := testing.AllocsPerRun(planRounds, func() {
		lg, base, err := opt.Extract(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Optimize(lg, base, env, obj); err != nil {
			t.Fatal(err)
		}
	})
	planning := time.Since(start) / (planRounds + 1) // AllocsPerRun warms up with one more

	const execRounds = 3
	start = time.Now()
	for i := 0; i < execRounds; i++ {
		e.Exec(p)
	}
	execution := time.Since(start) / execRounds

	t.Logf("planning %v (%.0f allocations), execution %v, fraction %.3f%%",
		planning, allocs, execution, 100*float64(planning)/float64(execution))
	if allocs > planAllocsQ5 {
		t.Errorf("planning Q5 allocates %.0f times, budget is %d", allocs, planAllocsQ5)
	}
}
