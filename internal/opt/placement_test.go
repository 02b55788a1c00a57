package opt_test

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// generatedLogicals builds one- to four-table Logicals over region, nation,
// supplier and customer: each table's own conjunct, every equi-join edge
// between tables present (customer–supplier is a second edge to nation's
// tables, so one of them lands as a residual), a cross-table non-equi
// conjunct once two tables are present, and the table-free 1 = 1. Each set
// comes in conjunct order and reversed, which changes which edge keys a
// join.
func generatedLogicals(t *testing.T, cat *catalog.Catalog) map[string]*plan.Logical {
	t.Helper()
	type pred struct {
		cols []string
		make func(c []expr.Expr) expr.Expr
	}
	cmp := func(op expr.CmpOp) func(c []expr.Expr) expr.Expr {
		return func(c []expr.Expr) expr.Expr { return expr.Cmp{Op: op, L: c[0], R: c[1]} }
	}
	k := func(v int64) expr.Expr { return expr.Const{V: expr.Int(v)} }
	f := func(v float64) expr.Expr { return expr.Const{V: expr.Float(v)} }
	preds := []pred{
		{[]string{"r_regionkey"}, func(c []expr.Expr) expr.Expr { return expr.Cmp{Op: expr.NE, L: c[0], R: k(3)} }},
		{[]string{"n_nationkey"}, func(c []expr.Expr) expr.Expr { return expr.Cmp{Op: expr.LT, L: c[0], R: k(20)} }},
		{[]string{"s_acctbal"}, func(c []expr.Expr) expr.Expr { return expr.Cmp{Op: expr.GT, L: f(0), R: c[0]} }},
		{[]string{"c_acctbal"}, func(c []expr.Expr) expr.Expr { return expr.Cmp{Op: expr.GT, L: c[0], R: f(0)} }},
		{[]string{"r_regionkey", "n_regionkey"}, cmp(expr.EQ)},
		{[]string{"n_nationkey", "s_nationkey"}, cmp(expr.EQ)},
		{[]string{"c_nationkey", "n_nationkey"}, cmp(expr.EQ)},
		{[]string{"s_nationkey", "c_nationkey"}, cmp(expr.EQ)},
		{[]string{"n_nationkey", "r_regionkey"}, cmp(expr.GE)},
		{[]string{"s_suppkey", "c_custkey"}, cmp(expr.LE)},
		{nil, func([]expr.Expr) expr.Expr { return expr.Cmp{Op: expr.EQ, L: k(1), R: k(1)} }},
	}

	out := make(map[string]*plan.Logical)
	for _, names := range [][]string{
		{tpch.Nation},
		{tpch.Region, tpch.Nation},
		{tpch.Supplier, tpch.Nation, tpch.Region},
		{tpch.Customer, tpch.Supplier, tpch.Nation, tpch.Region},
	} {
		for _, reversed := range []bool{false, true} {
			tables := make([]*catalog.Table, len(names))
			for i, n := range names {
				tables[i] = cat.MustTable(n)
			}
			lg, err := plan.NewLogical(tables)
			if err != nil {
				t.Fatal(err)
			}
			var conj []expr.Expr
		next:
			for _, p := range preds {
				cols := make([]expr.Expr, len(p.cols))
				for i, name := range p.cols {
					g, err := lg.Resolve("", name)
					if err != nil {
						continue next // a table the predicate needs is absent
					}
					cols[i] = expr.Col{Idx: g, Name: name}
				}
				conj = append(conj, p.make(cols))
			}
			if reversed {
				slices.Reverse(conj)
			}
			for _, c := range conj {
				if err := lg.AddPredicate(c); err != nil {
					t.Fatal(err)
				}
			}
			out[fmt.Sprintf("%s reversed=%t", strings.Join(names, ","), reversed)] = lg
		}
	}
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

var residualsRE = regexp.MustCompile(`(\d+) residuals\)$`)

// estimatedPlacement lists the scans, joins and filters of OperatorEstimates
// in order, each with where the estimate placed conjuncts.
func estimatedPlacement(ops []obsv.OpEstimate) []string {
	var out []string
	for _, op := range ops {
		switch op.Kind {
		case obsv.KindScan:
			out = append(out, fmt.Sprintf("scan %s filtered=%t", op.Table, strings.HasSuffix(op.Desc, ", filtered)")))
		case obsv.KindJoin:
			n := 0
			if m := residualsRE.FindStringSubmatch(op.Desc); m != nil {
				n, _ = strconv.Atoi(m[1])
			}
			out = append(out, fmt.Sprintf("join residuals=%d", n))
		case obsv.KindFilter:
			out = append(out, "filter")
		}
	}
	return out
}

// loweredPlacement lists the same for a lowered tree, walking each join's
// accumulated side before its new leaf, as the estimate does.
func loweredPlacement(root plan.Node, builds []bool) []string {
	var out []string
	var walk func(n plan.Node, step int)
	walk = func(n plan.Node, step int) {
		switch n := n.(type) {
		case *plan.Scan:
			out = append(out, fmt.Sprintf("scan %s filtered=%t", n.Table.Name, n.Filter != nil))
		case *plan.HashJoin:
			acc, leaf := n.Build, n.Probe
			if !builds[step] {
				acc, leaf = n.Probe, n.Build
			}
			walk(acc, step-1)
			walk(leaf, step-1)
			residuals := 0
			switch r := n.Residual.(type) {
			case nil:
			case expr.And:
				residuals = len(r.Terms)
			default:
				residuals = 1
			}
			out = append(out, fmt.Sprintf("join residuals=%d", residuals))
		case *plan.Filter:
			walk(n.Input, step)
			out = append(out, "filter")
		default:
			for _, c := range n.Children() {
				walk(c, step)
			}
		}
	}
	walk(root, len(builds)-1)
	return out
}

// tableFreeLandings names where a lowered tree checks its conjuncts over no
// table: "filter", or "join of N tables" for the join whose inputs scan N.
func tableFreeLandings(root plan.Node) []string {
	var out []string
	check := func(pred expr.Expr, at string) {
		terms := []expr.Expr{pred}
		if and, ok := pred.(expr.And); ok {
			terms = and.Terms
		}
		for _, term := range terms {
			if len(expr.AppendCols(nil, term)) == 0 {
				out = append(out, at)
			}
		}
	}
	var walk func(n plan.Node) (scans int)
	walk = func(n plan.Node) (scans int) {
		if _, ok := n.(*plan.Scan); ok {
			return 1
		}
		for _, c := range n.Children() {
			scans += walk(c)
		}
		switch n := n.(type) {
		case *plan.HashJoin:
			if n.Residual != nil {
				check(n.Residual, fmt.Sprintf("join of %d tables", scans))
			}
		case *plan.Filter:
			check(n.Pred, "filter")
		}
		return scans
	}
	walk(root)
	return out
}

// TestEstimatePricesTheLoweredTree: the optimizer's estimate and Lower
// place every conjunct by the same rule, so for every join order, build
// side and pushdown depth the estimate's scans, joins and filters — which
// scans are filtered, how many residual conjuncts each join checks — are
// the lowered tree's. The generated Logicals include a conjunct over no
// table, pinning where it lands: a Filter in a one-table plan, the first
// join's residual otherwise. Orders with no equi-join edge to a prefix
// must fail on both sides.
func TestEstimatePricesTheLoweredTree(t *testing.T) {
	e := commercialEngine(t, opt.Objective{})
	env, _ := e.OptimizerEnv()
	logicals := generatedLogicals(t, e.Catalog())
	landing := make(map[*plan.Logical]string, len(logicals))
	for _, lg := range logicals {
		landing[lg] = "join of 2 tables"
		if len(lg.Tables) == 1 {
			landing[lg] = "filter"
		}
	}
	q5, _, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	logicals["q5"] = q5

	for name, lg := range logicals {
		n := len(lg.Tables)
		lowered := 0
		for _, order := range permutations(n) {
			for mask := 0; mask < 1<<(n-1); mask++ {
				builds := make([]bool, n-1)
				for i := range builds {
					builds[i] = mask&(1<<i) != 0
				}
				for _, pd := range []plan.Pushdown{plan.PushdownAll, plan.PushdownBase} {
					ch := plan.PhysChoices{JoinOrder: order, BuildLeft: builds, Pushdown: pd}
					label := fmt.Sprintf("%s order=%v builds=%v pushdown=%s", name, order, builds, pd)
					root, err := lg.Lower(ch)
					ops := opt.OperatorEstimates(lg, env, &opt.Choice{Phys: ch, Parallelism: 1})
					if err != nil {
						if ops != nil {
							t.Errorf("%s: Lower fails (%v) but the estimate prices it", label, err)
						}
						continue
					}
					lowered++
					if ops == nil {
						t.Errorf("%s: Lower builds it but the estimate does not price it", label)
						continue
					}
					if got, want := estimatedPlacement(ops), loweredPlacement(root, builds); !slices.Equal(got, want) {
						t.Errorf("%s:\nestimate %v\nlowered  %v", label, got, want)
					}
					var want []string
					if at, ok := landing[lg]; ok {
						want = []string{at}
					}
					if got := tableFreeLandings(root); !slices.Equal(got, want) {
						t.Errorf("%s: 1 = 1 lands at %v, want %v", label, got, want)
					}
				}
			}
		}
		if lowered == 0 {
			t.Errorf("%s: no join order lowers", name)
		}
	}
}

// TestOperatorEstimatesSumToTheChoice: converting cycles to seconds and
// joules is linear and defined once, so the per-operator estimates plus
// the statement overhead's own conversion add up to the whole-plan
// estimate the optimizer scored, for either objective and access path.
// The base shape comes at either pushdown depth: the optimizer prices the
// base's depth first, so a placement it reused across depths would price
// the other one wrong.
func TestOperatorEstimatesSumToTheChoice(t *testing.T) {
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

	e := commercialEngine(t, opt.Objective{})
	lg, base, err := opt.Extract(tpch.Q5(e.Catalog(), "ASIA", 1994))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 10} {
		env, _ := e.OptimizerEnv()
		env.SharedConcurrency = q
		for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules()} {
			for _, pd := range []plan.Pushdown{plan.PushdownAll, plan.PushdownBase} {
				base.Pushdown = pd
				ch, err := opt.Optimize(lg, base, env, obj)
				if err != nil {
					t.Fatal(err)
				}
				// The engine charges its statement overhead unamplified as
				// compute; under a shared pass it time-shares like the rest of
				// the query's own work.
				stretch := 1.0
				if ch.Shared && q > 1 {
					stretch = float64(q)
				}
				secs := stretch * env.CPU.EstimateSeconds(env.OverheadCycles, cpu.Compute, ch.Parallelism)
				joules := env.CPU.EstimateEnergy(env.OverheadCycles, cpu.Compute, ch.Parallelism)
				for _, op := range opt.OperatorEstimates(lg, env, ch) {
					secs += op.Seconds
					joules += op.Joules
				}
				label := fmt.Sprintf("%s objective, shared concurrency %d, base pushdown %s (shared=%t, parallelism %d)", obj, q, pd, ch.Shared, ch.Parallelism)
				if !near(secs, ch.EstSeconds) {
					t.Errorf("%s: operators sum to %v s, the choice estimates %v s", label, secs, ch.EstSeconds)
				}
				if !near(joules, ch.EstJoules) {
					t.Errorf("%s: operators sum to %v J, the choice estimates %v J", label, joules, ch.EstJoules)
				}
			}
		}
	}
}
