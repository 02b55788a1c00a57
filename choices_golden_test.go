package main

import (
	"fmt"
	"strings"
	"testing"

	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/mqo"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// TestGoldenBuilderChoices pins what every programmatic plan builder hands
// the optimizer: the logical plan opt.Extract returns for it (conjuncts in
// order, with their column ids and equi-join edges; aggregation,
// projection, ordering), the base physical choices, the tree those choices
// lower to, and the optimizer's pick with its estimates under the latency
// and joules objectives at shared concurrency 0 and 10. Estimates render
// as hex floats, so byte equality is bit equality. Each builder's own tree
// must also be the one its base choices lower to.
func TestGoldenBuilderChoices(t *testing.T) {
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 20
	e := engine.New(prof, system.NewSUT())
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	e.WarmAll()
	cat := e.Catalog()

	type built struct {
		name string
		p    plan.Node
	}
	var builders []built
	for _, q := range tpch.Q5WorkloadParams() {
		builders = append(builders, built{q.String(), tpch.Q5(cat, q.Region, q.StartYear)})
	}
	builders = append(builders,
		built{"QuantityQuery(7)", tpch.QuantityQuery(cat, 7)},
		built{"QuantityBandQuery(21, 2)", tpch.QuantityBandQuery(cat, 21, 2)},
		built{"RevenueByQuantityQuery(30)", tpch.RevenueByQuantityQuery(cat, 30)},
		built{"OrderedRevenueQuery(12)", tpch.OrderedRevenueQuery(cat, 12)},
		built{"OrderkeyBandQuery(100, 400)", tpch.OrderkeyBandQuery(cat, 100, 400)},
		built{"StatusQuery(F)", tpch.StatusQuery(cat, "F")},
		built{"SegmentQuery(BUILDING)", tpch.SegmentQuery(cat, "BUILDING")},
	)
	for _, s := range []mqo.MergeStrategy{mqo.OrChain, mqo.HashSet} {
		m, err := mqo.Merge(tpch.QuantityWorkload(cat, 3), s)
		if err != nil {
			t.Fatal(err)
		}
		builders = append(builders, built{"mqo.Merge(QuantityWorkload(3), " + s.String() + ")", m.Plan})
	}

	env, _ := e.OptimizerEnv()
	var b strings.Builder
	for _, bd := range builders {
		lg, base, err := opt.Extract(bd.p)
		if err != nil {
			t.Fatalf("%s: %v", bd.name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", bd.name, lg.Describe())
		for i, c := range lg.Conjuncts {
			fmt.Fprintf(&b, "conjunct %d: %s cols=%v tables=%b", i, c.Pred, expr.AppendCols(nil, c.Pred), uint64(c.Tables))
			if c.EquiJoin {
				fmt.Fprintf(&b, " equi=%d,%d", c.LeftCol, c.RightCol)
			}
			b.WriteByte('\n')
		}
		if lg.Agg != nil {
			fmt.Fprintf(&b, "group by %v\n", lg.Agg.GroupBy)
			for _, s := range lg.Agg.Specs {
				var cols []int
				if s.Arg != nil {
					cols = expr.AppendCols(nil, s.Arg)
				}
				fmt.Fprintf(&b, "aggregate %s(%v) cols=%v as %s\n", s.Func, s.Arg, cols, s.Name)
			}
		}
		if lg.Project != nil {
			for i, x := range lg.Project.Exprs {
				fmt.Fprintf(&b, "project %s cols=%v as %s %v\n", x, expr.AppendCols(nil, x), lg.Project.Names[i], lg.Project.Kinds[i])
			}
		}
		fmt.Fprintf(&b, "sort %v limit %d\n", lg.Sort, lg.Limit)
		fmt.Fprintf(&b, "base: order=%v builds=%v pushdown=%s\n", base.JoinOrder, base.BuildLeft, base.Pushdown)

		lowered, err := lg.Lower(base)
		if err != nil {
			t.Fatalf("%s: lower base: %v", bd.name, err)
		}
		if got, want := plan.Format(lowered), plan.Format(bd.p); got != want {
			t.Errorf("%s: base choices lower to\n%swant the builder's own tree\n%s", bd.name, got, want)
		}
		b.WriteString(plan.Format(lowered))

		for _, sharedQ := range []int{0, 10} {
			env.SharedConcurrency = sharedQ
			for _, obj := range []opt.Objective{opt.MinimizeLatency(), opt.MinimizeJoules()} {
				ch, err := opt.Optimize(lg, base, env, obj)
				if err != nil {
					t.Fatalf("%s: optimize under %s at shared concurrency %d: %v", bd.name, obj, sharedQ, err)
				}
				fmt.Fprintf(&b, "%s shared=%d: order=%v builds=%v pushdown=%s parallelism=%d shared=%v secs=%x joules=%x rows=%x\n",
					obj, sharedQ, ch.Phys.JoinOrder, ch.Phys.BuildLeft, ch.Phys.Pushdown,
					ch.Parallelism, ch.Shared, ch.EstSeconds, ch.EstJoules, ch.EstRows)
			}
		}
		b.WriteByte('\n')
	}

	checkGolden(t, "choices", b.String())
}
