package main

import (
	"fmt"
	"strings"
	"testing"

	"ecodb/internal/engine"
	"ecodb/internal/experiments"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

// TestGoldenPlans pins the cost-and-energy optimizer's plan choices: the
// EXPLAIN rendering of TPC-H Q5 under the latency and joules objectives,
// and the access-path flip the joules objective makes when ten queries are
// co-admitted on a shared session. Estimates and choices are deterministic
// functions of the catalog statistics and cost constants, so any drift in
// cardinality estimation, costing, or enumeration shows up here as a diff.
func TestGoldenPlans(t *testing.T) {
	const q5sql = `EXPLAIN SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON n_regionkey = r_regionkey
		JOIN customer ON c_nationkey = n_nationkey
		JOIN orders ON o_custkey = c_custkey
		JOIN lineitem ON l_orderkey = o_orderkey
		JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		WHERE r_name = 'ASIA'
		  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'
		GROUP BY n_name ORDER BY revenue DESC`

	mkEngine := func(obj opt.Objective) *engine.Engine {
		prof := engine.ProfileCommercial()
		prof.WorkAmplification = 20
		prof.Objective = obj
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
			tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
		e.WarmAll()
		return e
	}

	var b strings.Builder
	for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules()} {
		e := mkEngine(obj)
		out, err := sql.Explain(e, q5sql)
		if err != nil {
			t.Fatalf("explain under %s: %v", obj, err)
		}
		fmt.Fprintf(&b, "== EXPLAIN Q5, objective %s ==\n%s\n", obj, out)
	}

	// The shared-scan flip: with the whole ten-query Q5 batch co-admitted,
	// the joules objective rides the shared pass while latency stays
	// private.
	e := mkEngine(opt.Objective{})
	lg, base, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	env, _ := e.OptimizerEnv()
	env.SharedConcurrency = 10
	for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules()} {
		out, err := opt.Explain(lg, base, env, obj)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== Q5 at shared concurrency 10, objective %s ==\n%s\n", obj, out)
	}

	checkGolden(t, "plans", b.String())
}

// sharedExplainer plans EXPLAINs as if q queries were co-admitted on a
// shared session, so the served path can render the shared access path,
// under obj when it is enabled and the engine's objective otherwise.
type sharedExplainer struct {
	*engine.Engine
	q   int
	obj opt.Objective
}

func (s sharedExplainer) OptimizerEnv() (opt.Env, opt.Objective) {
	env, obj := s.Engine.OptimizerEnv()
	env.SharedConcurrency = s.q
	if s.obj.Enabled {
		obj = s.obj
	}
	return env, obj
}

// TestGoldenExplainServed pins the EXPLAIN text `ecodb serve` answers, on
// the serving system it answers from: the filtered two-way orders ⨝
// lineitem count and the six-way Q5 join of the short-statement workload,
// under the served objective (the profile's, latency when disabled), and
// Q5 with ten queries co-admitted on a shared session under both
// objectives.
func TestGoldenExplainServed(t *testing.T) {
	sys := experiments.ServerSystem(experiments.Config{SF: 0.01, Amplification: 1, Seed: 42, ProtocolRuns: 1})
	e := sys.Engine
	date := func(y, m int) string { return fmt.Sprintf("DATE '%04d-%02d-01'", y, m) }
	joinCount := func(year, month, qty int) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM orders JOIN lineitem ON l_orderkey = o_orderkey"+
			" WHERE o_orderdate >= %s AND o_orderdate < %s AND l_quantity < %d",
			date(year, month), date(year+1, month), qty)
	}
	q5 := func(region string, year int) string {
		return fmt.Sprintf("SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue"+
			" FROM region JOIN nation ON n_regionkey = r_regionkey"+
			" JOIN customer ON c_nationkey = n_nationkey"+
			" JOIN orders ON o_custkey = c_custkey"+
			" JOIN lineitem ON l_orderkey = o_orderkey"+
			" JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey"+
			" WHERE r_name = '%s' AND o_orderdate >= %s AND o_orderdate < %s"+
			" GROUP BY n_name ORDER BY revenue DESC",
			region, date(year, 1), date(year+1, 1))
	}

	var b strings.Builder
	explain := func(title string, ex sql.Explainer, q string) {
		t.Helper()
		out, err := sql.Explain(ex, "EXPLAIN "+q)
		if err != nil {
			t.Fatalf("%s: %v", title, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", title, out)
	}
	for _, jc := range [][3]int{{1992, 1, 20}, {1993, 6, 25}, {1994, 12, 30}, {1996, 3, 22}} {
		explain(fmt.Sprintf("orders ⨝ lineitem count, year %d month %d qty %d", jc[0], jc[1], jc[2]),
			e, joinCount(jc[0], jc[1], jc[2]))
	}
	for _, rq := range []struct {
		region string
		year   int
	}{{"ASIA", 1994}, {"EUROPE", 1996}} {
		explain(fmt.Sprintf("Q5 %s %d", rq.region, rq.year), e, q5(rq.region, rq.year))
	}
	for _, obj := range []opt.Objective{{}, opt.MinimizeJoules()} {
		explain(fmt.Sprintf("Q5 ASIA 1994 at shared concurrency 10, objective %s", obj),
			sharedExplainer{e, 10, obj}, q5("ASIA", 1994))
	}
	checkGolden(t, "explain_served", b.String())
}
