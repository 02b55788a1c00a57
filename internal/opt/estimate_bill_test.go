package opt_test

import (
	"math"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/system"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// TestEstimateIsTheBillWhereCardinalityIsExact: the estimate and the
// executor call the same exec.CostModel functions, so where statistics
// give the exact cardinality — predicate-free scans, a global COUNT(*) —
// the per-kind cycles planCycles predicts are the cycles the profile's
// spans were charged, to float-summation order (a heap's bytes stream in
// one product in the estimate, page by page in the run). One gap is not a
// charge's: the result's wire size. The estimate prices a row at 8 bytes
// per numeric and 16 per string column; the bill counts Row.Bytes (a
// 4-byte header, len+2 per string). The test holds that gap to exactly
// ResultKBCycles × the byte difference / 1024, and everything else to 1e-9.
//
// A COUNT(*) whose pushed filter every lineitem row passes (l_quantity is
// 1..50, so the estimated selectivity is exactly 1), the constant written
// on either side, has an exact
// cardinality too, and shows a second gap: the estimate
// prices a zone-map consult per page for every pushed filter, while the
// executor consults zone maps only when the engine prunes, which neither
// stock profile does. The test holds that gap to exactly ZoneCheckCycles ×
// the table's pages of compute.
func TestEstimateIsTheBillWhereCardinalityIsExact(t *testing.T) {
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

	for _, prof := range []engine.Profile{engine.ProfileCommercial(), engine.ProfileMySQLMemory()} {
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.002, 42).Load(e.Catalog(), tpch.Customer, tpch.Orders, tpch.Lineitem)
		e.WarmAll()
		e.SetProfiling(true)
		env, _ := e.OptimizerEnv()

		if prof.ZoneMapPruning {
			t.Fatalf("%s: stock profile prunes; the zone-check gap below assumes it does not", prof.Name)
		}
		lineitem := e.MustTable(tpch.Lineitem)
		countOver := func(preds ...expr.Expr) *plan.Logical {
			lg, err := plan.NewLogical([]*catalog.Table{lineitem})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range preds {
				if err := lg.AddPredicate(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := lg.SetAgg(nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}}); err != nil {
				t.Fatal(err)
			}
			return lg
		}
		qty := lineitem.Schema.Col("l_quantity")
		shapes := map[string]*plan.Logical{
			"count(*)": countOver(),
			"count(*) where l_quantity < 51": countOver(
				expr.Cmp{Op: expr.LT, L: qty, R: expr.Const{V: expr.Int(51)}}),
			"count(*) where 51 > l_quantity": countOver(
				expr.Cmp{Op: expr.GT, L: expr.Const{V: expr.Int(51)}, R: qty}),
			"count(*) where l_quantity in [1, 51)": countOver(
				expr.Between{E: qty, Lo: expr.Int(1), Hi: expr.Int(51)}),
		}
		var err error
		for _, name := range []string{tpch.Lineitem, tpch.Orders, tpch.Customer} {
			if shapes["scan "+name], err = plan.NewLogical([]*catalog.Table{e.MustTable(name)}); err != nil {
				t.Fatal(err)
			}
		}
		for name, lg := range shapes {
			label := prof.Name + ", " + name
			p, err := lg.Lower(lg.DefaultChoices())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ch, err := opt.Optimize(lg, lg.DefaultChoices(), env, opt.MinimizeLatency())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// A heap fragment's scan is charged on the span of the operator
			// that pumps it, so operators compare as one sum; the result
			// path has a span of its own.
			var estOps, estResult, billOps, billResult [3]float64
			for _, op := range opt.OperatorCycles(lg, env, ch) {
				into := &estOps
				if op.Kind == obsv.KindResult {
					into = &estResult
				}
				for k, c := range op.Cycles {
					into[k] += c
				}
			}

			rows := e.Query(p)
			if err := rows.Close(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := rows.Stats()
			obsv.Walk(rows.Profile().Root, func(s *obsv.Span, _ int) {
				into := &billOps
				if s.Kind == obsv.KindResult {
					into = &billResult
				}
				for k, c := range s.Cycles {
					into[k] += c
				}
			})
			if st.RowsOut == 0 || billOps[cpu.Compute] == 0 {
				t.Fatalf("%s: nothing ran (rows=%d, cycles=%v)", label, st.RowsOut, billOps)
			}

			var estRowBytes float64
			for _, c := range lg.OutputSchema().Columns() {
				if c.Kind == expr.KindString {
					estRowBytes += 16
				} else {
					estRowBytes += 8
				}
			}
			widthGap := float64(st.BytesOut) - float64(st.RowsOut)*estRowBytes
			estResult[cpu.Stream] += prof.Cost.ResultKBCycles * widthGap / 1024
			var zoneGap float64
			if len(lg.Conjuncts) > 0 {
				zoneGap = prof.Cost.ZoneCheckCycles * float64(lineitem.Heap.NumPages())
				estOps[cpu.Compute] -= zoneGap
			}

			for k := range estOps {
				kind := cpu.WorkKind(k)
				if !near(estOps[k], billOps[k]) {
					t.Errorf("%s: operators' %v cycles estimated %v (zone-check gap of %v cycles applied), charged %v",
						label, kind, estOps[k], zoneGap, billOps[k])
				}
				if !near(estResult[k], billResult[k]) {
					t.Errorf("%s: result path's %v cycles estimated %v (width gap of %v bytes applied), charged %v",
						label, kind, estResult[k], widthGap, billResult[k])
				}
			}
		}
	}
}
