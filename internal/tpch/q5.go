package tpch

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Q5 builds TPC-H query 5 — the six-table join with a group-by on one
// attribute that the paper uses for every PVC experiment ("This query has a
// response time that is often close to the geometric mean of the power
// tests"):
//
//	SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
//	FROM customer, orders, lineitem, supplier, nation, region
//	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
//	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
//	  AND r_name = :region
//	  AND o_orderdate >= :date AND o_orderdate < :date + 1 year
//	GROUP BY n_name ORDER BY revenue DESC
//
// The plan is the no-index shape both engines run: a left-deep chain of
// hash joins over full scans in FROM order, small relations on the build
// side until supplier, which is built and probed with the lineitem stream.
func Q5(cat *catalog.Catalog, region string, startYear int) plan.Node {
	if startYear < 1992 || startYear > 1997 {
		panic(fmt.Sprintf("tpch: Q5 start year %d outside order-date range", startYear))
	}
	lg, err := plan.NewLogical([]*catalog.Table{
		cat.MustTable(Region), cat.MustTable(Nation), cat.MustTable(Customer),
		cat.MustTable(Orders), cat.MustTable(Lineitem), cat.MustTable(Supplier),
	})
	must(err)
	col := func(name string) expr.Col {
		g, err := lg.Resolve("", name)
		must(err)
		return expr.Col{Idx: g, Name: name}
	}
	eq := func(l, r expr.Expr) expr.Expr { return expr.Cmp{Op: expr.EQ, L: l, R: r} }

	// Conjuncts in join order: each table's filter, then the key joining
	// it (accumulated side first), then residuals. Lower keys each join on
	// the first equi-join conjunct that reaches the new table, so supplier
	// joins on s_suppkey and checks s_nationkey = c_nationkey after.
	for _, p := range []expr.Expr{
		eq(col("r_name"), expr.Const{V: expr.String(region)}),
		eq(col("r_regionkey"), col("n_regionkey")),
		eq(col("n_nationkey"), col("c_nationkey")),
		expr.Between{
			E:  col("o_orderdate"),
			Lo: expr.MustParseDate(fmt.Sprintf("%d-01-01", startYear)),
			Hi: expr.MustParseDate(fmt.Sprintf("%d-01-01", startYear+1)),
		},
		eq(col("c_custkey"), col("o_custkey")),
		eq(col("o_orderkey"), col("l_orderkey")),
		eq(col("l_suppkey"), col("s_suppkey")),
		eq(col("s_nationkey"), col("c_nationkey")),
	} {
		must(lg.AddPredicate(p))
	}

	// Revenue aggregation grouped by nation name, largest first.
	must(lg.SetAgg([]int{col("n_name").Idx},
		[]plan.AggSpec{{Func: plan.Sum, Arg: revenue(col), Name: "revenue"}}))
	lg.Sort = []plan.SortKey{{Col: lg.OutputSchema().MustIndex("revenue"), Desc: true}}

	return mustLower(lg, plan.PhysChoices{
		JoinOrder: []int{0, 1, 2, 3, 4, 5},
		BuildLeft: []bool{true, true, true, true, false},
		Pushdown:  plan.PushdownAll,
	})
}

// revenue is l_extendedprice * (1 - l_discount) over col's column space.
func revenue(col func(string) expr.Col) expr.Expr {
	return expr.Arith{
		Op: expr.Mul,
		L:  col("l_extendedprice"),
		R:  expr.Arith{Op: expr.Sub, L: expr.Const{V: expr.Float(1)}, R: col("l_discount")},
	}
}

// must panics on an error building one of this package's fixed queries:
// the error is a bug in the builder, not bad input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustLower lowers a builder's logical plan, so the tree carries its origin.
func mustLower(lg *plan.Logical, ch plan.PhysChoices) plan.Node {
	p, err := lg.Lower(ch)
	must(err)
	return p
}

// selection lowers a full-row scan of t filtered by pred.
func selection(t *catalog.Table, pred expr.Expr) plan.Node {
	p, err := plan.LowerScan(t, pred)
	must(err)
	return p
}

// lineitemLogical starts a one-table logical plan over lineitem, filtered
// by l_quantity < maxQty.
func lineitemLogical(cat *catalog.Catalog, maxQty int64) *plan.Logical {
	t := cat.MustTable(Lineitem)
	lg, err := plan.NewLogical([]*catalog.Table{t})
	must(err)
	must(lg.AddPredicate(expr.Cmp{
		Op: expr.LT,
		L:  t.Schema.Col("l_quantity"),
		R:  expr.Const{V: expr.Int(maxQty)},
	}))
	return lg
}

// Q5Params identifies one Q5 instance.
type Q5Params struct {
	Region    string
	StartYear int
}

func (p Q5Params) String() string { return fmt.Sprintf("Q5(%s, %d)", p.Region, p.StartYear) }

// Q5WorkloadParams returns the paper's ten-query workload: "predicates
// using regions 'Asia' and 'America' and all five possible date ranges",
// which are non-overlapping and uniform in work.
func Q5WorkloadParams() []Q5Params {
	var out []Q5Params
	for _, region := range []string{"ASIA", "AMERICA"} {
		for year := 1993; year <= 1997; year++ {
			out = append(out, Q5Params{Region: region, StartYear: year})
		}
	}
	return out
}

// Q5Workload builds the ten Q5 plans of the paper's workload.
func Q5Workload(cat *catalog.Catalog) []plan.Node {
	params := Q5WorkloadParams()
	plans := make([]plan.Node, len(params))
	for i, p := range params {
		plans[i] = Q5(cat, p.Region, p.StartYear)
	}
	return plans
}

// QuantityQuery builds the paper's QED selection query: a full-row
// single-table select over lineitem with a point predicate on l_quantity.
// With quantities uniform over 1..50, each query selects 2% of the table
// (§4: "each query having a 2% selectivity based on the l_quantity
// attribute").
func QuantityQuery(cat *catalog.Catalog, quantity int64) plan.Node {
	t := cat.MustTable(Lineitem)
	return selection(t, expr.Cmp{
		Op: expr.EQ,
		L:  t.Schema.Col("l_quantity"),
		R:  expr.Const{V: expr.Int(quantity)},
	})
}

// QuantityWorkload builds n selection queries with distinct l_quantity
// predicates (n ≤ 50, one per distinct value, so "there is no overlap
// amongst the selection predicates up to a batch size of 50").
func QuantityWorkload(cat *catalog.Catalog, n int) []plan.Node {
	if n < 1 || n > 50 {
		panic(fmt.Sprintf("tpch: quantity workload size %d outside [1,50]", n))
	}
	out := make([]plan.Node, n)
	for i := range out {
		out[i] = QuantityQuery(cat, int64(i+1))
	}
	return out
}

// QuantityBandQuery builds a range selection over lineitem:
// lo <= l_quantity < lo+width. The range shape is deliberately outside
// mqo's mergeable fragment (equality selections only), making it the
// target workload of the shared-scan subsystem: QED cannot fold these into
// one disjunction, but scanshare can still serve a whole batch of them
// from one heap pass.
func QuantityBandQuery(cat *catalog.Catalog, lo, width int64) plan.Node {
	t := cat.MustTable(Lineitem)
	return selection(t, expr.Between{
		E:  t.Schema.Col("l_quantity"),
		Lo: expr.Int(lo),
		Hi: expr.Int(lo + width),
	})
}

// QuantityBandWorkload builds n non-mergeable band selections with
// distinct, non-overlapping 2-quantity bands (n ≤ 25 keeps the bands
// within l_quantity's 1..50 domain).
func QuantityBandWorkload(cat *catalog.Catalog, n int) []plan.Node {
	if n < 1 || n > 25 {
		panic(fmt.Sprintf("tpch: band workload size %d outside [1,25]", n))
	}
	out := make([]plan.Node, n)
	for i := range out {
		out[i] = QuantityBandQuery(cat, int64(2*i+1), 2)
	}
	return out
}

// RevenueByQuantityQuery builds the Q1-shaped pricing-summary aggregation:
// revenue per l_quantity value over a quantity-bounded slice of lineitem,
//
//	SELECT l_quantity, SUM(l_extendedprice * (1 - l_discount)),
//	       AVG(l_extendedprice * (1 - l_discount)), COUNT(*)
//	FROM lineitem WHERE l_quantity < :maxQty GROUP BY l_quantity
//
// — the aggregation-dominated analytical shape whose Agg sits directly on
// a scan→filter fragment, so the parallel pre-aggregation path applies.
func RevenueByQuantityQuery(cat *catalog.Catalog, maxQty int64) plan.Node {
	lg := lineitemLogical(cat, maxQty)
	col := lg.Tables[0].Schema.Col
	must(lg.SetAgg([]int{col("l_quantity").Idx},
		[]plan.AggSpec{
			{Func: plan.Sum, Arg: revenue(col), Name: "revenue"},
			{Func: plan.Avg, Arg: revenue(col), Name: "avg_revenue"},
			{Func: plan.Count, Name: "n"},
		}))
	return mustLower(lg, lg.DefaultChoices())
}

// OrderedRevenueQuery builds the sort-dominated analytical shape: per-row
// revenue over a quantity-bounded slice of lineitem, ordered by revenue,
//
//	SELECT l_extendedprice * (1 - l_discount) AS revenue, l_orderkey
//	FROM lineitem WHERE l_quantity < :maxQty
//	ORDER BY revenue DESC
//
// — a Sort sitting directly on a scan→filter→project fragment, so the
// morsel-parallel sort path (worker-side run generation + loser-tree
// merge) applies.
func OrderedRevenueQuery(cat *catalog.Catalog, maxQty int64) plan.Node {
	lg := lineitemLogical(cat, maxQty)
	col := lg.Tables[0].Schema.Col
	lg.Project = &plan.ProjectSpec{
		Exprs: []expr.Expr{revenue(col), col("l_orderkey")},
		Names: []string{"revenue", "l_orderkey"},
		Kinds: []expr.Kind{expr.KindFloat, expr.KindInt},
	}
	lg.Sort = []plan.SortKey{{Col: 0, Desc: true}}
	return mustLower(lg, lg.DefaultChoices())
}
