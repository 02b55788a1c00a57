package main

import (
	"fmt"
	"math/rand"

	"ecodb/internal/server"
	"ecodb/internal/tpch"
)

// stmtsPerWorkload is the length of every workload's statement list. The
// two clients cycle through it half a list apart, so statement i and
// statement i+20 meet in the admission queue; the physics pass admits
// exactly those pairs.
const stmtsPerWorkload = 40

// workload is one served traffic mix: a dataset size, an admission policy
// and a seed-parameterised statement list.
type workload struct {
	Name   string
	Why    string
	SF     float64
	Policy server.Policy
	// gen returns the statement list; statement i has shape i % Shapes, so
	// any prefix that is a multiple of Shapes long is shape-balanced.
	gen    func(r *rand.Rand, sf float64) []string
	Shapes int
}

// The scale factors are chosen against the host, not the simulation: SF
// 0.05 puts ≈300 k lineitem rows (≈17 MB of column payload) behind every
// scan, which is larger than one core's L2, so the scan workloads stream
// from memory; SF 0.01 keeps blocking operators and result paths short
// enough that a 10 s window holds well over a thousand statements.
var workloads = []*workload{
	{
		Name:   "scan_filter",
		Why:    "filter + scan/morsel pump do the work, one-row results: vectorized predicates and parallel scan must show here, result encoding must not",
		SF:     0.05,
		Policy: server.PolicyPrivate,
		gen:    genScan,
		Shapes: 5,
	},
	{
		Name:   "shared_scan",
		Why:    "same statements as scan_filter through scanshare's circular pass: a scan change that helps one path and costs the other splits these rows",
		SF:     0.05,
		Policy: server.PolicyShared,
		gen:    genScan,
		Shapes: 5,
	},
	{
		Name:   "join_agg_sort",
		Why:    "blocking operators (hash join, agg, sort and their parallel twins) dominate, filters trivial, results small",
		SF:     0.01,
		Policy: server.PolicyPrivate,
		gen:    genJoin,
		Shapes: 5,
	},
	{
		Name:   "wide_result",
		Why:    "fast-path scans returning thousands of rows: re-rowification, JSON encoding and the socket do the work",
		SF:     0.01,
		Policy: server.PolicyPrivate,
		gen:    genWide,
		Shapes: 3,
	},
	{
		Name:   "short_stmt",
		Why:    "sub-millisecond statements and EXPLAINs: parse, bind, admission, profiling and net/http fixed costs dominate; executor changes must show nothing",
		SF:     0.01,
		Policy: server.PolicyPrivate,
		gen:    genShort,
		Shapes: 6,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// statements generates the workload's list for a seed. scan_filter and
// shared_scan share a generator and therefore a byte-identical list.
func (w *workload) statements(seed int64, sf float64) []string {
	out := w.gen(rand.New(rand.NewSource(seed)), sf)
	if len(out) != stmtsPerWorkload {
		panic(fmt.Sprintf("bench: workload %s generated %d statements", w.Name, len(out)))
	}
	return out
}

// deck draws parameters without replacement from a shuffled domain,
// reshuffling when it runs out. A shape is drawn eight times per list, so
// a parameter that drives cost (a selectivity) has a domain of eight,
// four or two values: every seed then sends the same multiset of costs in
// a different order with different secondary parameters, which keeps a
// workload's total cost nearly seed-independent while its SQL varies.
type deck struct {
	r    *rand.Rand
	vals []int
	next int
}

func newDeck(r *rand.Rand, lo, hi int) *deck {
	d := &deck{r: r, vals: make([]int, hi-lo+1)}
	for i := range d.vals {
		d.vals[i] = lo + i
	}
	d.next = len(d.vals)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.vals) {
		d.r.Shuffle(len(d.vals), func(i, j int) { d.vals[i], d.vals[j] = d.vals[j], d.vals[i] })
		d.next = 0
	}
	v := d.vals[d.next]
	d.next++
	return v
}

func date(y, m, d int) string { return fmt.Sprintf("DATE '%04d-%02d-%02d'", y, m, d) }

// build lays shapes out round-robin: statement i is shapes[i%len(shapes)]().
func build(shapes ...func() string) []string {
	out := make([]string, stmtsPerWorkload)
	for i := range out {
		out[i] = shapes[i%len(shapes)]()
	}
	return out
}

// genScan: one-row aggregates over full lineitem scans whose predicates
// span the filter shapes the engine distinguishes — a Q6-shaped 4-term
// AND, a 3-term AND, a 3-term OR, IN(...) AND, and the single comparison
// that is already vectorized (the control).
func genScan(r *rand.Rand, _ float64) []string {
	qty := newDeck(r, 1, 50) // every value selects 2 %: never drives cost
	q6Year, q6Disc := newDeck(r, 1993, 1996), newDeck(r, 2, 9)
	andQty, andPrice, andDisc := newDeck(r, 40, 47), newDeck(r, 0, 7), newDeck(r, 1, 2)
	orDisc, orPrice := newDeck(r, 9, 10), newDeck(r, 0, 7)
	inYear, inMonth := newDeck(r, 1992, 1995), newDeck(r, 1, 12)
	return build(
		func() string {
			y, d := q6Year.draw(), q6Disc.draw()
			return fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem"+
				" WHERE l_shipdate >= %s AND l_shipdate < %s AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %d",
				date(y, 1, 1), date(y+1, 1, 1), float64(d-1)/100, float64(d+1)/100, 24+d%2)
		},
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem"+
				" WHERE l_quantity < %d AND l_extendedprice >= %d.5 AND l_discount > 0.0%d",
				andQty.draw(), 900+60*andPrice.draw(), andDisc.draw())
		},
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem"+
				" WHERE l_quantity = %d OR l_discount >= 0.%02d OR l_extendedprice < %d.5",
				qty.draw(), orDisc.draw(), 500+50*orPrice.draw())
		},
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem"+
				" WHERE l_quantity IN (%d, %d, %d) AND l_shipdate >= %s",
				qty.draw(), qty.draw(), qty.draw(), date(inYear.draw(), inMonth.draw(), 1))
		},
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = %d", qty.draw())
		},
	)
}

func q5SQL(region string, year int) string {
	return fmt.Sprintf("SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue"+
		" FROM region JOIN nation ON n_regionkey = r_regionkey"+
		" JOIN customer ON c_nationkey = n_nationkey"+
		" JOIN orders ON o_custkey = c_custkey"+
		" JOIN lineitem ON l_orderkey = o_orderkey"+
		" JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey"+
		" WHERE r_name = '%s' AND o_orderdate >= %s AND o_orderdate < %s"+
		" GROUP BY n_name ORDER BY revenue DESC",
		region, date(year, 1, 1), date(year+1, 1, 1))
}

func joinCountSQL(year, month, qty int) string {
	return fmt.Sprintf("SELECT COUNT(*) AS n FROM orders JOIN lineitem ON l_orderkey = o_orderkey"+
		" WHERE o_orderdate >= %s AND o_orderdate < %s AND l_quantity < %d",
		date(year, month, 1), date(year+1, month, 1), qty)
}

// genJoin: TPC-H Q5 as SQL text, a filtered two-way join count, a
// Q1-shaped grouped aggregate with ORDER BY, and two ORDER BY ... LIMIT
// statements (one over orders, one over lineitem).
func genJoin(r *rand.Rand, _ float64) []string {
	region, q5Year := newDeck(r, 0, len(tpch.RegionNames)-1), newDeck(r, 1993, 1996)
	jcYear, jcMonth, jcQty := newDeck(r, 1992, 1995), newDeck(r, 1, 8), newDeck(r, 22, 29)
	q1Month, q1Day := newDeck(r, 9, 12), newDeck(r, 1, 28)
	topMonth := newDeck(r, 1, 8)
	lowQty := newDeck(r, 1, 8)
	return build(
		func() string { return q5SQL(tpch.RegionNames[region.draw()], q5Year.draw()) },
		func() string { return joinCountSQL(jcYear.draw(), jcMonth.draw(), jcQty.draw()) },
		func() string {
			return fmt.Sprintf("SELECT l_quantity, SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n"+
				" FROM lineitem WHERE l_shipdate <= %s GROUP BY l_quantity ORDER BY l_quantity",
				date(1998, q1Month.draw(), q1Day.draw()))
		},
		func() string {
			return fmt.Sprintf("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders"+
				" WHERE o_orderdate >= %s ORDER BY o_totalprice DESC LIMIT 20", date(1992, topMonth.draw(), 1))
		},
		func() string {
			return fmt.Sprintf("SELECT l_orderkey, l_extendedprice FROM lineitem"+
				" WHERE l_quantity >= %d ORDER BY l_extendedprice LIMIT 100", lowQty.draw())
		},
	)
}

// genWide: single-comparison (fast-path) scans that return thousands of
// rows — whole lineitem rows, whole orders rows, and a two-column
// arithmetic projection.
func genWide(r *rand.Rand, _ float64) []string {
	qty := newDeck(r, 1, 49)
	day := newDeck(r, 1, 13)
	lo := newDeck(r, 1, 40)
	mul := newDeck(r, 2, 9)
	return build(
		func() string {
			k := qty.draw()
			return fmt.Sprintf("SELECT * FROM lineitem WHERE l_quantity BETWEEN %d AND %d", k, k+1)
		},
		func() string {
			return fmt.Sprintf("SELECT * FROM orders WHERE o_orderdate >= %s", date(1997, 9, day.draw()))
		},
		func() string {
			a := lo.draw()
			return fmt.Sprintf("SELECT l_extendedprice * (1 - l_discount) AS revenue, l_quantity * %d AS scaled"+
				" FROM lineitem WHERE l_quantity BETWEEN %d AND %d", mul.draw(), a, a+10)
		},
	)
}

// genShort: key lookups and tiny counts on the four small tables, plus
// EXPLAIN of a two-way and of the six-way join — the only served path
// that runs the optimizer.
func genShort(r *rand.Rand, sf float64) []string {
	nation := newDeck(r, 0, len(tpch.NationNames)-1)
	supp := newDeck(r, 1, int(tpch.Cardinality(tpch.Supplier, sf)))
	order := newDeck(r, 1, int(tpch.Cardinality(tpch.Orders, sf)))
	region := newDeck(r, 0, len(tpch.RegionNames)-1)
	year := newDeck(r, 1993, 1997)
	month := newDeck(r, 1, 12)
	qty := newDeck(r, 20, 30)
	return build(
		func() string {
			return fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", nation.draw())
		},
		func() string {
			return fmt.Sprintf("SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = %d", supp.draw())
		},
		func() string {
			return fmt.Sprintf("SELECT COUNT(*) AS n FROM customer WHERE c_nationkey = %d", nation.draw())
		},
		func() string {
			return fmt.Sprintf("SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", order.draw())
		},
		func() string { return "EXPLAIN " + joinCountSQL(year.draw()-1, month.draw(), qty.draw()) },
		func() string { return "EXPLAIN " + q5SQL(tpch.RegionNames[region.draw()], year.draw()) },
	)
}
