package opt_test

import (
	"testing"
	"time"

	"ecodb/internal/engine"
	"ecodb/internal/experiments"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

// BenchmarkOptimizeQ5 measures full optimization of the six-table Q5 join.
// Extract is left out: it only reads the origin Lower stamped on the plan,
// so the DP enumeration is all the engine's planning does. The bench-smoke
// CI job runs this to catch planning-cost regressions;
// TestPlanningFractionOfQ5Execution and TestServedExplainAllocations hold
// the budgets themselves.
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
// Q5 — 7, all of them Optimize's, since Extract reads the plan's origin
// without allocating: the output schema the row width is read from, and the
// Choice with its join order and build sides — plus about a tenth.
const planAllocsQ5 = 8

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

// servedExplainAllocs is the budget of one served EXPLAIN's planning and
// rendering, opt.Explain from a bound plan: the output schema's four
// allocations, the Choice with its two slices, and the rendered string — 8
// for either shape — plus about a tenth.
const servedExplainAllocs = 9

// TestServedExplainAllocations holds both EXPLAIN shapes the server answers
// — the filtered two-way orders ⨝ lineitem count and the six-way Q5 join —
// to servedExplainAllocs on the serving system at SF 0.01. The estimate's
// frontiers, placements and rendering buffer come back from a pool, so only
// what the caller keeps is allocated. Parsing and binding are left out.
func TestServedExplainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector: the estimate's scratch is then rebuilt")
	}
	e := experiments.ServerSystem(experiments.Config{SF: 0.01, Amplification: 1, Seed: 42, ProtocolRuns: 1}).Engine
	env, _ := e.OptimizerEnv()
	for name, q := range map[string]string{
		"orders ⨝ lineitem count": "SELECT COUNT(*) AS n FROM orders JOIN lineitem ON l_orderkey = o_orderkey" +
			" WHERE o_orderdate >= DATE '1994-03-01' AND o_orderdate < DATE '1995-03-01' AND l_quantity < 25",
		"Q5": "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue" +
			" FROM region JOIN nation ON n_regionkey = r_regionkey" +
			" JOIN customer ON c_nationkey = n_nationkey" +
			" JOIN orders ON o_custkey = c_custkey" +
			" JOIN lineitem ON l_orderkey = o_orderkey" +
			" JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey" +
			" WHERE r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'" +
			" GROUP BY n_name ORDER BY revenue DESC",
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := sql.BindLogical(e.Catalog(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		base := lg.DefaultChoices()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := opt.Explain(lg, base, env, opt.MinimizeLatency()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", name, allocs)
		if allocs > servedExplainAllocs {
			t.Errorf("%s: EXPLAIN allocates %.0f times, budget is %d", name, allocs, servedExplainAllocs)
		}
	}
}
