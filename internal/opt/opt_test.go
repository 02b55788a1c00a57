package opt_test

import (
	"strings"
	"testing"

	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

// commercialEngine returns a warm commercial-profile engine over a small
// TPC-H load, optionally with an optimizer objective enabled.
func commercialEngine(t testing.TB, obj opt.Objective) *engine.Engine {
	t.Helper()
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 20
	prof.Objective = obj
	e := engine.New(prof, system.NewSUT())
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	e.WarmAll()
	return e
}

func rowsEqual(a, b []expr.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestObjectivesDisagree: on the Q5 join the latency-optimal and
// joules-optimal choices must differ, with each winning its own metric.
func TestObjectivesDisagree(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	lg, base, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	env, _ := e.OptimizerEnv()

	lat, err := opt.Optimize(lg, base, env, opt.MinimizeLatency())
	if err != nil {
		t.Fatalf("latency optimize: %v", err)
	}
	jou, err := opt.Optimize(lg, base, env, opt.MinimizeJoules())
	if err != nil {
		t.Fatalf("joules optimize: %v", err)
	}

	if jou.EstJoules > lat.EstJoules {
		t.Errorf("joules objective estimates more joules than latency objective: %g > %g",
			jou.EstJoules, lat.EstJoules)
	}
	if lat.EstSeconds > jou.EstSeconds {
		t.Errorf("latency objective estimates more seconds than joules objective: %g > %g",
			lat.EstSeconds, jou.EstSeconds)
	}
	samePhys := lat.Parallelism == jou.Parallelism && lat.Shared == jou.Shared &&
		samePlan(lat.Phys, jou.Phys)
	if samePhys {
		t.Errorf("objectives chose identical plans: %+v", lat)
	}
}

func samePlan(a, b plan.PhysChoices) bool {
	if len(a.JoinOrder) != len(b.JoinOrder) || a.Pushdown != b.Pushdown {
		return false
	}
	for i := range a.JoinOrder {
		if a.JoinOrder[i] != b.JoinOrder[i] {
			return false
		}
	}
	for i := range a.BuildLeft {
		if a.BuildLeft[i] != b.BuildLeft[i] {
			return false
		}
	}
	return true
}

// TestOptimizedResultsBitIdentical is the optimizer's hard safety
// property: for every query shape the engine routes through it, under
// every objective, result rows must be bit-identical (values AND order)
// to the hand-lowered baseline.
func TestOptimizedResultsBitIdentical(t *testing.T) {
	type mk func(e *engine.Engine) plan.Node
	queries := map[string]mk{
		"q5": func(e *engine.Engine) plan.Node {
			return tpch.Q5(e.Catalog(), "AMERICA", 1995)
		},
		"revenue_agg": func(e *engine.Engine) plan.Node {
			return tpch.RevenueByQuantityQuery(e.Catalog(), 30)
		},
		"band_scan": func(e *engine.Engine) plan.Node {
			return tpch.QuantityBandQuery(e.Catalog(), 11, 2)
		},
		"sql_join_residual": func(e *engine.Engine) plan.Node {
			p, err := sql.Plan(e.Catalog(), `SELECT n_name, COUNT(*) AS suppliers
				FROM nation JOIN supplier ON s_nationkey = n_nationkey AND s_acctbal > n_nationkey
				GROUP BY n_name ORDER BY n_name`)
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
			return p
		},
	}

	baseline := commercialEngine(t, opt.Objective{})
	for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules(), opt.Blend(0.5)} {
		optimized := commercialEngine(t, obj)
		for name, build := range queries {
			want, _ := baseline.Exec(build(baseline))
			got, _ := optimized.Exec(build(optimized))
			if !rowsEqual(want.Rows, got.Rows) {
				t.Errorf("%s under %s objective diverges from baseline: %d vs %d rows",
					name, obj, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestSharedAccessPathFollowsObjective: with co-attached queries expected,
// the joules objective takes the shared pass (pass work amortizes) while
// the latency objective stays private (sharing stretches response time).
func TestSharedAccessPathFollowsObjective(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	lg, base, err := opt.Extract(tpch.QuantityBandQuery(e.Catalog(), 21, 2))
	if err != nil {
		t.Fatal(err)
	}
	env, _ := e.OptimizerEnv()
	env.SharedConcurrency = 8

	jou, err := opt.Optimize(lg, base, env, opt.MinimizeJoules())
	if err != nil {
		t.Fatal(err)
	}
	if !jou.Shared {
		t.Errorf("joules objective should ride the shared pass at concurrency 8, chose private")
	}
	lat, err := opt.Optimize(lg, base, env, opt.MinimizeLatency())
	if err != nil {
		t.Fatal(err)
	}
	if lat.Shared {
		t.Errorf("latency objective should scan privately, chose shared")
	}
}

// TestSharedSessionOptimizedResults: a shared session with an objective
// enabled still returns exactly the private baseline's rows, whichever
// access path the optimizer picks.
func TestSharedSessionOptimizedResults(t *testing.T) {
	baseline := commercialEngine(t, opt.Objective{})
	optimized := commercialEngine(t, opt.MinimizeJoules())

	want, _ := baseline.Exec(tpch.QuantityBandQuery(baseline.Catalog(), 5, 2))

	s := optimized.NewSharedSession()
	s.SetExpectedConcurrency(8)
	rows := s.Query(tpch.QuantityBandQuery(optimized.Catalog(), 5, 2))
	var got []expr.Row
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		got = b.AppendRowsTo(got)
	}
	if !rowsEqual(want.Rows, got) {
		t.Fatalf("shared-session optimized query diverges: %d vs %d rows", len(got), len(want.Rows))
	}
}

// TestExplainSQL: the SQL front end's EXPLAIN renders the chosen plan
// with per-operator estimates.
func TestExplainSQL(t *testing.T) {
	e := commercialEngine(t, opt.MinimizeJoules())
	out, err := sql.Explain(e, `EXPLAIN SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON n_regionkey = r_regionkey
		JOIN customer ON c_nationkey = n_nationkey
		JOIN orders ON o_custkey = c_custkey
		JOIN lineitem ON l_orderkey = o_orderkey
		JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		WHERE r_name = 'ASIA'
		  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'
		GROUP BY n_name ORDER BY revenue DESC`)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, want := range []string{"objective=joules", "join order:", "Scan(lineitem", "HashJoin(", "Agg(", "rows≈"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// EXPLAIN statements must not execute.
	if _, err := sql.Plan(e.Catalog(), `EXPLAIN SELECT * FROM nation`); err == nil {
		t.Error("EXPLAIN statement should not be executable via Plan")
	}
}

// TestOptimizerBypassesUnknownShapes: a plan built node by node carries no
// logical origin, so under an objective it executes as handed in rather
// than failing.
func TestOptimizerBypassesUnknownShapes(t *testing.T) {
	baseline := commercialEngine(t, opt.Objective{})
	optimized := commercialEngine(t, opt.MinimizeJoules())

	// A bushy join: both children of the root join are themselves joins.
	mk := func(e *engine.Engine) plan.Node {
		cat := e.Catalog()
		rn := plan.NewHashJoin(
			plan.NewScan(cat.MustTable(tpch.Region), nil),
			plan.NewScan(cat.MustTable(tpch.Nation), nil),
			cat.MustTable(tpch.Region).Schema.MustIndex("r_regionkey"),
			cat.MustTable(tpch.Nation).Schema.MustIndex("n_regionkey"), nil)
		sc := plan.NewHashJoin(
			plan.NewScan(cat.MustTable(tpch.Supplier), nil),
			plan.NewScan(cat.MustTable(tpch.Customer), nil),
			cat.MustTable(tpch.Supplier).Schema.MustIndex("s_nationkey"),
			cat.MustTable(tpch.Customer).Schema.MustIndex("c_nationkey"), nil)
		return plan.NewHashJoin(rn, sc,
			rn.Schema().MustIndex("n_nationkey"),
			sc.Schema().MustIndex("s_nationkey"), nil)
	}
	if _, _, err := opt.Extract(mk(baseline)); err == nil {
		t.Fatal("a hand-built bushy join should have no origin to extract")
	}
	want, _ := baseline.Exec(mk(baseline))
	got, _ := optimized.Exec(mk(optimized))
	if !rowsEqual(want.Rows, got.Rows) {
		t.Fatalf("bypassed plan diverges: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
}
