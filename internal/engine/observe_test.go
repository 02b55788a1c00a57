package engine

import (
	"fmt"
	"math"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// relClose reports |a-b| within tol relative to the larger magnitude
// (absolute below 1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// checkProfileSums asserts the profile's two total-energy invariants:
// re-walking the span tree reproduces Profile.Joules bit-for-bit, and the
// attributed total matches the chronological meter total to float noise.
func checkProfileSums(t *testing.T, label string, p *obsv.Profile) {
	t.Helper()
	if p == nil {
		t.Fatalf("%s: nil profile", label)
	}
	if got := obsv.SumJoules(p.Root); got != p.Joules {
		t.Fatalf("%s: SumJoules(Root) = %v, Profile.Joules = %v (re-walk must be exact)",
			label, got, p.Joules)
	}
	if !relClose(p.Joules, p.MeterJoules, 1e-9) {
		t.Fatalf("%s: attributed %v J vs metered %v J (diff %g)",
			label, p.Joules, p.MeterJoules, p.Joules-p.MeterJoules)
	}
}

// Per-operator attributed joules must sum to the meter's total for the
// query window on the serial path.
func TestProfileJoulesSumToMeterSerial(t *testing.T) {
	e, m := newEngine(t, ProfileMySQLMemory(), 0.01)
	e.SetProfiling(true)
	p := e.Query(tpch.Q5(e.Catalog(), "ASIA", 1994)).Profile()
	checkProfileSums(t, "serial", p)
	meter := float64(m.CPU.Trace().Energy(p.Start, p.End))
	if !relClose(p.Joules, meter, 1e-9) {
		t.Fatalf("serial: profile %v J vs trace window %v J", p.Joules, meter)
	}
	if p.Root.Rows == 0 || p.End.Sub(p.Start) <= 0 {
		t.Fatalf("serial: degenerate profile: rows=%d window=%v",
			p.Root.Rows, p.End.Sub(p.Start))
	}
}

// Same invariant on the morsel-parallel path. Background I/O is disabled
// so the trace window holds only this query's charges.
func TestProfileJoulesSumToMeterParallel(t *testing.T) {
	prof := ProfileCommercial()
	prof.Workers = 4
	prof.BGIOProbPerPage = 0
	e, m := newEngine(t, prof, 0.01)
	e.WarmAll()
	e.SetProfiling(true)
	p := e.Query(tpch.Q5(e.Catalog(), "ASIA", 1994)).Profile()
	checkProfileSums(t, "parallel", p)
	meter := float64(m.CPU.Trace().Energy(p.Start, p.End))
	if !relClose(p.Joules, meter, 1e-9) {
		t.Fatalf("parallel: profile %v J vs trace window %v J", p.Joules, meter)
	}
}

// Same invariant on the shared-scan path, with co-admitted queries: each
// collector observes only its own query's clock advances, so the
// per-query profiles partition the batch window's metered energy.
func TestProfileJoulesSumToMeterShared(t *testing.T) {
	prof := ProfileCommercial()
	prof.BGIOProbPerPage = 0
	e, m := newEngine(t, prof, 0.01)
	e.WarmAll()
	e.SetProfiling(true)

	plans := tpch.Q5Workload(e.Catalog())[:3]
	t0 := m.Clock.Now()
	profiles := make([]*obsv.Profile, len(plans))
	e.RunWindow(e.NewSharedSession(), stmtsOf(plans), nil, func(i int, r *Rows, err error) {
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = r.Profile()
	})
	end := m.Clock.Now()

	var sum float64
	sharedSpans := 0
	for i, p := range profiles {
		checkProfileSums(t, fmt.Sprintf("shared query %d", i), p)
		if anyShared(p.Root) {
			sharedSpans++
		}
		sum += p.Joules
	}
	if sharedSpans == 0 {
		t.Fatal("no profile in the co-admitted batch carries a shared-scan span")
	}
	meter := float64(m.CPU.Trace().Energy(t0, end))
	if !relClose(sum, meter, 1e-9) {
		t.Fatalf("shared batch: Σ profiles = %v J, trace window = %v J", sum, meter)
	}
}

func anyShared(s *obsv.Span) bool {
	if s.Shared {
		return true
	}
	for _, c := range s.Children {
		if anyShared(c) {
			return true
		}
	}
	return false
}

// Profiling must not perturb the simulation: identical engines must
// produce bit-identical rows, stats, and metered energy with profiling on
// and off.
func TestProfilingChargesNothing(t *testing.T) {
	type outcome struct {
		rows   []expr.Row
		stats  ExecStats
		energy float64
	}
	run := func(profiling bool) outcome {
		e, m := newEngine(t, ProfileCommercial(), 0.01)
		e.WarmAll()
		e.SetProfiling(profiling)
		t0 := m.Clock.Now()
		res, st := e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))
		return outcome{rows: res.Rows, stats: st,
			energy: float64(m.CPU.Trace().Energy(t0, m.Clock.Now()))}
	}
	off, on := run(false), run(true)
	if off.stats != on.stats {
		t.Fatalf("stats drift: off %+v, on %+v", off.stats, on.stats)
	}
	if off.energy != on.energy {
		t.Fatalf("energy drift: off %v J, on %v J", off.energy, on.energy)
	}
	if len(off.rows) != len(on.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(off.rows), len(on.rows))
	}
	for i := range off.rows {
		for c := range off.rows[i] {
			if off.rows[i][c] != on.rows[i][c] {
				t.Fatalf("row %d col %d differs with profiling on", i, c)
			}
		}
	}
}

// With an enabled objective the profile carries the optimizer's estimates
// next to the actuals.
func TestProfileCarriesEstimates(t *testing.T) {
	prof := ProfileCommercial()
	prof.Objective = opt.MinimizeLatency()
	e, _ := newEngine(t, prof, 0.01)
	e.WarmAll()
	e.SetProfiling(true)
	p := e.Query(tpch.Q5(e.Catalog(), "ASIA", 1994)).Profile()
	if p == nil {
		t.Fatal("nil profile")
	}
	if p.Plan == nil {
		t.Fatal("optimized query produced a profile without plan info")
	}
	if p.Plan.Objective != "latency" || len(p.Plan.Ops) == 0 {
		t.Fatalf("plan info incomplete: %+v", p.Plan)
	}
	withEst := 0
	obsv.Walk(p.Root, func(s *obsv.Span, _ int) {
		if s.Est != nil {
			withEst++
			if s.Est.Rows <= 0 || s.Est.Joules < 0 {
				t.Fatalf("span %q carries degenerate estimate %+v", s.Label, *s.Est)
			}
		}
	})
	if withEst == 0 {
		t.Fatal("no span carries an estimate on the optimized path")
	}
	checkProfileSums(t, "optimized", p)
}

// Profile is nil until profiling is enabled, and carries a statement root
// once it is.
func TestProfileAvailability(t *testing.T) {
	e, _ := newEngine(t, ProfileMySQLMemory(), 0.005)
	if p := e.Query(tpch.QuantityQuery(e.Catalog(), 1)).Profile(); p != nil {
		t.Fatal("Profile() without SetProfiling(true) should be nil")
	}
	e.SetProfiling(true)
	p := e.Query(tpch.QuantityQuery(e.Catalog(), 1)).Profile()
	if p == nil {
		t.Fatal("Profile() with profiling on returned nil")
	}
	if p.Root.Kind != obsv.KindStatement {
		t.Fatalf("root kind = %v, want statement", p.Root.Kind)
	}
}

// Under a Limit the sort keeps only the rows the limit will take, and its
// span says so: Rows is what it served. Everything the simulation charges
// is unchanged — the sort still consumes its whole input, so its cycles,
// its joules and exec_sort_rows_total are those of the unlimited sort, on
// the morsel-parallel lowering and the serial one alike. Inline or pooled it
// is the same fragment sort, so each statement is exactly one merge pass.
func TestSortSpanUnderLimitServesNButChargesForEveryRowConsumed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prof := ProfileCommercial()
		prof.Workers = workers
		prof.BGIOProbPerPage = 0
		e, _ := newEngine(t, prof, 0.01)
		e.WarmAll()

		sorted := tpch.OrderedRevenueQuery(e.Catalog(), 30)
		sortSpan := func(p plan.Node) (*obsv.Span, int64) {
			before := obsv.Default().Snapshot()
			profile, err := e.AnalyzeQuery(p)
			if err != nil {
				t.Fatal(err)
			}
			var span *obsv.Span
			obsv.Walk(profile.Root, func(s *obsv.Span, _ int) {
				if s.Kind == obsv.KindSort {
					span = s
				}
			})
			if span == nil {
				t.Fatalf("workers=%d: no sort span in the profile", workers)
			}
			after := obsv.Default().Snapshot()
			if got := after.Counter(obsv.MetricMergePasses) - before.Counter(obsv.MetricMergePasses); got != 1 {
				t.Errorf("workers=%d: exec_sort_merge_passes_total moved by %d, want 1", workers, got)
			}
			return span, after.Counter(obsv.MetricSortRows) - before.Counter(obsv.MetricSortRows)
		}
		const n = 100
		all, consumed := sortSpan(sorted)
		top, consumedUnderLimit := sortSpan(plan.NewLimit(sorted, n))

		if all.Rows != consumed || consumed <= n {
			t.Fatalf("workers=%d: unlimited sort served %d rows of %d consumed; the fixture needs more than %d",
				workers, all.Rows, consumed, n)
		}
		if top.Rows != n {
			t.Errorf("workers=%d: sort span under LIMIT %d reports %d rows served", workers, n, top.Rows)
		}
		if consumedUnderLimit != consumed {
			t.Errorf("workers=%d: exec_sort_rows_total moved by %d under the limit, %d without", workers, consumedUnderLimit, consumed)
		}
		if top.Cycles != all.Cycles {
			t.Errorf("workers=%d: sort span cycles %v under the limit, %v without", workers, top.Cycles, all.Cycles)
		}
		if !relClose(top.Joules, all.Joules, 1e-12) {
			t.Errorf("workers=%d: sort span joules %v under the limit, %v without", workers, top.Joules, all.Joules)
		}
	}
}
