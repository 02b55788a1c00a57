package sql

import (
	"math"
	"testing"

	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/opt"
	"ecodb/internal/tpch"
)

// servedShapes are one statement of every shape the served bench workloads
// send: the scan filters, the joins, aggregates and top-N statements, the
// wide results and the short lookups.
var servedShapes = []string{
	`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 44 AND l_extendedprice >= 1080.5 AND l_discount > 0.01`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = 7 OR l_discount >= 0.09 OR l_extendedprice < 650.5`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity IN (3, 17, 41) AND l_shipdate >= DATE '1994-06-01'`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = 12`,
	`SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM region JOIN nation ON n_regionkey = r_regionkey JOIN customer ON c_nationkey = n_nationkey JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey WHERE r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01' GROUP BY n_name ORDER BY revenue DESC`,
	`SELECT COUNT(*) AS n FROM orders JOIN lineitem ON l_orderkey = o_orderkey WHERE o_orderdate >= DATE '1993-03-01' AND o_orderdate < DATE '1994-03-01' AND l_quantity < 25`,
	`SELECT l_quantity, SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1998-10-14' GROUP BY l_quantity ORDER BY l_quantity`,
	`SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderdate >= DATE '1992-04-01' ORDER BY o_totalprice DESC LIMIT 20`,
	`SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity >= 5 ORDER BY l_extendedprice LIMIT 100`,
	`SELECT * FROM lineitem WHERE l_quantity BETWEEN 4 AND 5`,
	`SELECT * FROM orders WHERE o_orderdate >= DATE '1997-09-05'`,
	`SELECT l_extendedprice * (1 - l_discount) AS revenue, l_quantity * 3 AS scaled FROM lineitem WHERE l_quantity BETWEEN 12 AND 22`,
	`SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 9`,
	`SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = 17`,
	`SELECT COUNT(*) AS n FROM customer WHERE c_nationkey = 9`,
	`SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 33`,
}

// TestExplainAgreesWithExplainAnalyze: on an engine with an objective, the
// estimates EXPLAIN ANALYZE's profile carries are the ones EXPLAIN prints —
// the optimizer's choice over the statement's bound logical plan under its
// default choices — bit for bit, for every served statement shape. Both
// must cost the statement as written: a BETWEEN is one conjunct, not the
// two comparisons it executes as.
func TestExplainAgreesWithExplainAnalyze(t *testing.T) {
	for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules()} {
		prof := engine.ProfileCommercial()
		prof.WorkAmplification = 20
		prof.Objective = obj
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
			tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
		e.WarmAll()
		env, _ := e.OptimizerEnv()

		for _, q := range servedShapes {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			lg, err := BindLogical(e.Catalog(), stmt)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			explained, err := opt.Optimize(lg, lg.DefaultChoices(), env, obj)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}

			p, err := Bind(e.Catalog(), stmt)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			profile, err := e.AnalyzeQuery(p)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got := profile.Plan
			if got == nil {
				t.Fatalf("%s under %s: the profile carries no estimates", q, obj)
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.EstSeconds, explained.EstSeconds) || !same(got.EstJoules, explained.EstJoules) ||
				!same(got.EstRows, explained.EstRows) || got.Parallelism != explained.Parallelism {
				t.Errorf("%s under %s:\nEXPLAIN ANALYZE estimates %v s, %v J, %v rows at parallelism %d\nEXPLAIN estimates         %v s, %v J, %v rows at parallelism %d",
					q, obj, got.EstSeconds, got.EstJoules, got.EstRows, got.Parallelism,
					explained.EstSeconds, explained.EstJoules, explained.EstRows, explained.Parallelism)
			}
		}
	}
}
