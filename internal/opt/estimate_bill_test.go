package opt_test

import (
	"math"
	"testing"

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
func TestEstimateIsTheBillWhereCardinalityIsExact(t *testing.T) {
	const tol = 1e-9
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

	for _, prof := range []engine.Profile{engine.ProfileCommercial(), engine.ProfileMySQLMemory()} {
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.002, 42).Load(e.Catalog(), tpch.Customer, tpch.Orders, tpch.Lineitem)
		e.WarmAll()
		e.SetProfiling(true)
		env, _ := e.OptimizerEnv()

		shapes := map[string]plan.Node{
			"count(*)": plan.NewAgg(plan.NewScan(e.MustTable(tpch.Lineitem), nil), nil,
				[]plan.AggSpec{{Func: plan.Count, Name: "n"}}),
		}
		for _, name := range []string{tpch.Lineitem, tpch.Orders, tpch.Customer} {
			shapes["scan "+name] = plan.NewScan(e.MustTable(name), nil)
		}
		for name, p := range shapes {
			label := prof.Name + ", " + name
			lg, base, err := opt.Extract(p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ch, err := opt.Optimize(lg, base, env, opt.MinimizeLatency())
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

			for k := range estOps {
				kind := cpu.WorkKind(k)
				if !near(estOps[k], billOps[k]) {
					t.Errorf("%s: operators' %v cycles estimated %v, charged %v", label, kind, estOps[k], billOps[k])
				}
				if !near(estResult[k], billResult[k]) {
					t.Errorf("%s: result path's %v cycles estimated %v (width gap of %v bytes applied), charged %v",
						label, kind, estResult[k], widthGap, billResult[k])
				}
			}
		}
	}
}
