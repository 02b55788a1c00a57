package core

import (
	"math"
	"testing"

	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/mqo"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// testSystem builds a small MySQL-profile system with lineitem loaded.
func testSystem(t testing.TB) (*System, []workload.Query) {
	t.Helper()
	prof := engine.ProfileMySQLMemory()
	sys := NewSystem(prof)
	sys.Runs = 3
	tpch.NewGenerator(0.01, 5).Load(sys.Engine.Catalog(), tpch.Lineitem)
	return sys, workload.NewQueries("sel", tpch.QuantityWorkload(sys.Engine.Catalog(), 8))
}

// commercialSystem builds a small commercial-profile system with the Q5
// tables.
func commercialSystem(t testing.TB) (*System, []workload.Query) {
	t.Helper()
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 10
	sys := NewSystem(prof)
	sys.Runs = 3
	tpch.NewGenerator(0.01, 5).Load(sys.Engine.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	sys.Engine.WarmAll()
	return sys, workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog()))
}

func TestSettingIsStock(t *testing.T) {
	if !Stock().IsStock() {
		t.Fatal("Stock() should be stock")
	}
	if PVCSetting(0.05, cpu.DowngradeMedium).IsStock() {
		t.Fatal("PVC setting should not be stock")
	}
	if (Setting{}).String() != "stock" {
		t.Fatalf("zero setting renders %q", Setting{}.String())
	}
}

func TestPaperSettingsCount(t *testing.T) {
	s := PaperSettings()
	if len(s) != 7 {
		t.Fatalf("paper settings = %d, want 7 (stock + 3×2)", len(s))
	}
	if !s[0].IsStock() {
		t.Fatal("first setting must be stock")
	}
	if len(MediumSettings()) != 4 {
		t.Fatal("medium settings should be stock + 3 points")
	}
}

func TestMeasureOnceFields(t *testing.T) {
	sys, queries := testSystem(t)
	m := sys.MeasureOnce(Stock(), func() {
		workload.RunSequential(sys.Engine, sys.Machine.Clock, queries[:2])
	})
	if m.Time <= 0 || m.CPUEnergyExact <= 0 || m.WallEnergy <= 0 {
		t.Fatalf("measurement incomplete: %+v", m)
	}
	if m.WallEnergy <= m.CPUEnergyExact {
		t.Fatal("wall energy should exceed CPU energy")
	}
	// CPU-pegged workload at stock: monitored V and F sit at the top
	// p-state (the paper's §3.4 observation).
	if math.Abs(float64(m.MeanVoltage)-1.25) > 0.02 {
		t.Fatalf("mean voltage = %v, want ≈1.25", m.MeanVoltage)
	}
	if math.Abs(m.MeanFreqGHz-3.167) > 0.05 {
		t.Fatalf("mean freq = %v, want ≈3.167", m.MeanFreqGHz)
	}
}

func TestMeasurementEDPAndTheory(t *testing.T) {
	m := Measurement{
		Time:        10 * sim.Second,
		CPUEnergy:   100,
		MeanVoltage: 1.25,
		MeanFreqGHz: 3.0,
	}
	if m.EDP() != 1000 {
		t.Fatalf("EDP = %v", m.EDP())
	}
	want := 1.25 * 1.25 / 3.0
	if math.Abs(m.TheoreticalEDP()-want) > 1e-12 {
		t.Fatalf("theoretical EDP = %v", m.TheoreticalEDP())
	}
}

func TestPVCSweepOrderAndRestore(t *testing.T) {
	sys, queries := testSystem(t)
	settings := []Setting{Stock(), PVCSetting(0.05, cpu.DowngradeMedium)}
	ms := NewPVC(sys).Sweep(settings, queries[:3])
	if len(ms) != 2 {
		t.Fatalf("sweep returned %d measurements", len(ms))
	}
	if !ms[0].Setting.IsStock() || ms[1].Setting.Underclock != 0.05 {
		t.Fatal("sweep order not preserved")
	}
	// Sweep must leave the machine at stock.
	if sys.Machine.CPU.Underclock() != 0 || sys.Machine.CPU.Downgrade() != cpu.DowngradeNone {
		t.Fatal("sweep did not restore stock settings")
	}
}

func TestPVCSavesEnergyOnCPUBoundWorkload(t *testing.T) {
	sys, queries := testSystem(t)
	ms := NewPVC(sys).Sweep(
		[]Setting{Stock(), PVCSetting(0.05, cpu.DowngradeMedium)}, queries[:3])
	rel := Relative(ms)
	if rel[1].EnergyRatio >= 1 {
		t.Fatalf("PVC energy ratio = %v, want < 1", rel[1].EnergyRatio)
	}
	if rel[1].TimeRatio <= 1 {
		t.Fatalf("PVC time ratio = %v, want > 1 (it trades time for energy)", rel[1].TimeRatio)
	}
	if rel[1].EDPChange >= 0 {
		t.Fatalf("5%%/medium should lower EDP, got %+v", rel[1])
	}
}

func TestRelativeRequiresStock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Relative without stock did not panic")
		}
	}()
	Relative([]Measurement{{Setting: PVCSetting(0.05, cpu.DowngradeSmall)}})
}

func TestQEDPreservesResultCardinalities(t *testing.T) {
	sys, queries := testSystem(t)

	seq := workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	batch := RunQED(sys, queries, mqo.OrChain)

	if seq.TotalRows() != batch.TotalRows() {
		t.Fatalf("QED changed result sizes: %d vs %d", batch.TotalRows(), seq.TotalRows())
	}
	for i := range queries {
		if seq.Queries[i].Rows != batch.Queries[i].Rows {
			t.Fatalf("query %d rows differ: seq %d vs qed %d",
				i, seq.Queries[i].Rows, batch.Queries[i].Rows)
		}
		// Every query is issued with the batch and completes at its end.
		if q := batch.Queries[i]; q.ID != queries[i].ID || q.Start != 0 || q.End != batch.Total {
			t.Fatalf("query %d: %+v, want %s over [0, %v]", i, q, queries[i].ID, batch.Total)
		}
	}
}

// runRouting runs one QED batch of l_quantity equality selections, one per
// constant, and fails unless every query returns its sequential
// cardinality.
func runRouting(t *testing.T, strategy mqo.MergeStrategy, consts ...expr.Value) {
	t.Helper()
	sys, _ := testSystem(t)
	li := sys.Engine.MustTable(tpch.Lineitem)
	plans := make([]plan.Node, len(consts))
	for i, v := range consts {
		plans[i] = plan.NewScan(li, expr.Cmp{Op: expr.EQ, L: li.Schema.Col("l_quantity"), R: expr.Const{V: v}})
	}
	queries := workload.NewQueries("q", plans)
	want := workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	got := RunQED(sys, queries, strategy)
	for i := range queries {
		if got.Queries[i].Rows != want.Queries[i].Rows || want.Queries[i].Rows == 0 {
			t.Errorf("query %d (= %v): QED %d rows, sequential %d", i, consts[i], got.Queries[i].Rows, want.Queries[i].Rows)
		}
	}
}

// Two queries sharing a constant each receive every matching row.
func TestQEDRoutesDuplicateConstants(t *testing.T) {
	runRouting(t, mqo.OrChain, expr.Int(5), expr.Int(7), expr.Int(5))
}

// A Float constant on the Int column matches numerically in the filter, so
// its query must get its rows under either strategy.
func TestQEDRoutesMixedKindConstants(t *testing.T) {
	runRouting(t, mqo.HashSet, expr.Float(5), expr.Int(7))
	runRouting(t, mqo.OrChain, expr.Float(5), expr.Int(7))
}

func TestQEDSavesEnergy(t *testing.T) {
	sys, queries := testSystem(t)
	trace := sys.Machine.CPU.Trace()
	clock := sys.Machine.Clock

	t0 := clock.Now()
	workload.RunSequential(sys.Engine, clock, queries)
	seqE := trace.Energy(t0, clock.Now())

	t1 := clock.Now()
	RunQED(sys, queries, mqo.OrChain)
	qedE := trace.Energy(t1, clock.Now())

	if qedE >= seqE {
		t.Fatalf("QED energy %v should undercut sequential %v", qedE, seqE)
	}
}

func TestQEDHashSetBeatsOrChain(t *testing.T) {
	sys, queries := testSystem(t)
	clock := sys.Machine.Clock

	t0 := clock.Now()
	RunQED(sys, queries, mqo.OrChain)
	orTime := clock.Now().Sub(t0)

	t1 := clock.Now()
	RunQED(sys, queries, mqo.HashSet)
	hashTime := clock.Now().Sub(t1)

	if hashTime >= orTime {
		t.Fatalf("hash-set merge (%v) should beat the OR chain (%v)", hashTime, orTime)
	}
}

func TestQEDFallsBackWhenUnmergeable(t *testing.T) {
	sys, _ := testSystem(t)
	// Q5 plans are not mergeable selections; load the remaining tables
	// they join against (lineitem is already present).
	tpch.NewGenerator(0.01, 5).Load(sys.Engine.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders)
	queries := workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog())[:2])
	want := workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	res := RunQED(sys, queries, mqo.OrChain)
	if len(res.Queries) != 2 {
		t.Fatalf("fallback produced %d results", len(res.Queries))
	}
	// Shared fallback: both queries are issued together, each finishes on
	// its own stream, and the answers are the sequential ones.
	for i, q := range res.Queries {
		if q.Start != 0 || q.End <= 0 || q.Rows != want.Queries[i].Rows {
			t.Fatalf("query %d: %+v, want issued at 0 with %d rows", i, q, want.Queries[i].Rows)
		}
	}
	// A lone unmergeable query just runs.
	if one := RunQED(sys, queries[:1], mqo.OrChain); len(one.Queries) != 1 || one.Queries[0].Rows != want.Queries[0].Rows {
		t.Fatalf("lone query: %+v", one)
	}
}

// The QED-layer acceptance test for the shared-scan flush: a non-mergeable
// batch served by one pass returns the same per-query cardinalities as
// sequential execution, costs less energy, and its simulated
// joules-per-query strictly decrease as the batch grows.
func TestQEDSharedScanFlushSavesJoulesPerQuery(t *testing.T) {
	bandSystem := func() *System {
		prof := engine.ProfileMySQLMemory()
		sys := NewSystem(prof)
		tpch.NewGenerator(0.01, 5).Load(sys.Engine.Catalog(), tpch.Lineitem)
		return sys
	}

	// Cardinalities: the shared flush must match sequential execution.
	sysA := bandSystem()
	bands := workload.NewQueries("band", tpch.QuantityBandWorkload(sysA.Engine.Catalog(), 6))
	seq := workload.RunSequential(sysA.Engine, sysA.Machine.Clock, bands)
	sh := RunQED(sysA, bands, mqo.OrChain)
	for i := range bands {
		if sh.Queries[i].Rows != seq.Queries[i].Rows {
			t.Fatalf("query %d: shared %d rows vs sequential %d", i, sh.Queries[i].Rows, seq.Queries[i].Rows)
		}
	}
	if sh.Total >= seq.Total {
		t.Fatalf("shared flush %v not faster than sequential %v", sh.Total, seq.Total)
	}

	// Joules-per-query strictly decrease with batch size — each query pays
	// its own CPU but the pass is amortized. N identical full-table scans
	// (not mergeable: no predicate to fold) per point, each N on a fresh
	// system, exact trace integral (no sampling noise).
	var perQuery []energy.Joules
	for _, n := range []int{1, 2, 4, 8} {
		sys := bandSystem()
		li := sys.Engine.MustTable(tpch.Lineitem)
		plans := make([]plan.Node, n)
		for i := range plans {
			plans[i] = plan.NewScan(li, nil)
		}
		qs := workload.NewQueries("full", plans)
		clock := sys.Machine.Clock
		t0 := clock.Now()
		// A batch of one has nothing to share and runs alone: the baseline.
		RunQED(sys, qs, mqo.OrChain)
		perQuery = append(perQuery, energy.PerQuery(sys.Machine.CPU.Trace().Energy(t0, clock.Now()), n))
	}
	for i := 1; i < len(perQuery); i++ {
		if perQuery[i] >= perQuery[i-1] {
			t.Fatalf("joules-per-query not strictly decreasing: %v", perQuery)
		}
	}
}

// A batch that is only PARTIALLY mergeable — some identical-shape equality
// selections plus one range selection — defeats mqo.Merge entirely (merge
// is all-or-nothing), so QED serves the whole batch from one shared pass:
// all queries issued together and every cardinality preserved.
func TestQEDFlushPartiallyMergeableBatch(t *testing.T) {
	sys, _ := testSystem(t)
	cat := sys.Engine.Catalog()
	plans := tpch.QuantityWorkload(cat, 3) // mergeable trio
	plans = append(plans, tpch.QuantityBandQuery(cat, 11, 2))
	queries := workload.NewQueries("mix", plans)

	want := workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	res := RunQED(sys, queries, mqo.OrChain)
	for i := range queries {
		if res.Queries[i].Rows != want.Queries[i].Rows {
			t.Fatalf("shared query %d: %d rows vs sequential %d", i, res.Queries[i].Rows, want.Queries[i].Rows)
		}
		if res.Queries[i].Start != 0 {
			t.Fatalf("shared query %d started at %v, want batch issue", i, res.Queries[i].Start)
		}
	}
}

func TestFirstLastQueryDegradation(t *testing.T) {
	batch := workload.RunResult{
		Total: 10 * sim.Second,
		Queries: []workload.QueryResult{
			{End: 10 * sim.Second}, {End: 10 * sim.Second}, {End: 10 * sim.Second},
		},
	}
	single := 2 * sim.Second
	if got := FirstQueryDegradation(batch, single); got != 8*sim.Second {
		t.Fatalf("first degradation = %v", got)
	}
	if got := LastQueryDegradation(batch, single); got != 4*sim.Second {
		t.Fatalf("last degradation = %v", got)
	}
}

func TestAdvisorChoosesWithinSLA(t *testing.T) {
	stock := Measurement{Setting: Stock(), Time: 100 * sim.Second, CPUEnergy: 1000}
	good := Measurement{Setting: PVCSetting(0.05, cpu.DowngradeMedium), Time: 103 * sim.Second, CPUEnergy: 600}
	slow := Measurement{Setting: PVCSetting(0.15, cpu.DowngradeMedium), Time: 120 * sim.Second, CPUEnergy: 500}
	ms := []Measurement{stock, good, slow}

	best, ok := Advisor{MaxSlowdown: 1.05}.Choose(ms)
	if !ok || best.Setting != good.Setting {
		t.Fatalf("advisor chose %v", best.Setting)
	}
	// Looser SLA admits the slower, cheaper point.
	best, _ = Advisor{MaxSlowdown: 1.25}.Choose(ms)
	if best.Setting != slow.Setting {
		t.Fatalf("loose SLA chose %v", best.Setting)
	}
	// Tight SLA leaves only stock.
	best, _ = Advisor{MaxSlowdown: 1.0}.Choose(ms)
	if !best.Setting.IsStock() {
		t.Fatalf("tight SLA chose %v", best.Setting)
	}
}

func TestAdvisorWithoutBaseline(t *testing.T) {
	_, ok := Advisor{MaxSlowdown: 1.1}.Choose([]Measurement{
		{Setting: PVCSetting(0.05, cpu.DowngradeSmall)},
	})
	if ok {
		t.Fatal("advisor without stock baseline should fail")
	}
}

func TestSLAFromCurve(t *testing.T) {
	ms := []Measurement{
		{Setting: Stock(), Time: 100 * sim.Second},
		{Setting: PVCSetting(0.05, cpu.DowngradeMedium), Time: 103 * sim.Second},
	}
	slas := SLAFromCurve(ms)
	if math.Abs(slas["uc=5%/medium"]-1.03) > 1e-9 {
		t.Fatalf("SLA map = %v", slas)
	}
}

func TestAdaptivePVCStaysWithinBudget(t *testing.T) {
	sys, queries := commercialSystem(t)

	// Stock baseline.
	t0 := sys.Machine.Clock.Now()
	workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	stockTime := sys.Machine.Clock.Now().Sub(t0)

	a := &AdaptivePVC{
		Sys: sys,
		Ladder: []Setting{
			PVCSetting(0.15, cpu.DowngradeMedium),
			PVCSetting(0.05, cpu.DowngradeMedium),
			Stock(),
		},
		Budget: sim.Duration(float64(stockTime) * 1.10),
	}
	total, decisions := a.Run(queries)
	if len(decisions) != len(queries) {
		t.Fatalf("decisions = %d", len(decisions))
	}
	if float64(total) > 1.12*float64(stockTime) {
		t.Fatalf("adaptive run %v blew the %v budget", total, a.Budget)
	}
}

func TestQEDModelFitAndPredictions(t *testing.T) {
	// T(n) = 2 + 0.5n seconds, t1 = 1.8s.
	m := FitQEDModel(1.8*sim.Second, 10, 7*sim.Second, 20, 12*sim.Second)
	if math.Abs(float64(m.Fixed)-2) > 1e-9 || math.Abs(float64(m.PerQuery)-0.5) > 1e-9 {
		t.Fatalf("fit = %+v", m)
	}
	if got := m.MergedTime(30); math.Abs(float64(got)-17) > 1e-9 {
		t.Fatalf("T(30) = %v", got)
	}
	if got := m.SequentialMeanResponse(9); math.Abs(float64(got)-9) > 1e-9 {
		t.Fatalf("seq mean(9) = %v, want (9+1)/2×1.8 = 9", got)
	}
	// First-query degradation grows with batch size (§4).
	if !(m.FirstQueryDegradation(20) > m.FirstQueryDegradation(10)) {
		t.Fatal("first-query degradation should grow with batch size")
	}
	// The last query can finish earlier than sequentially.
	if m.LastQueryDegradation(20) >= 0 {
		t.Fatal("last query should finish early for this fit")
	}
}

func TestQEDModelMatchesSimulator(t *testing.T) {
	sys, _ := testSystem(t)
	clock := sys.Machine.Clock

	single := workload.NewQueries("s", tpch.QuantityWorkload(sys.Engine.Catalog(), 1))
	t0 := clock.Now()
	workload.RunSequential(sys.Engine, clock, single)
	t1 := clock.Now().Sub(t0)

	runMerged := func(n int) sim.Duration {
		queries := workload.NewQueries("m", tpch.QuantityWorkload(sys.Engine.Catalog(), n))
		start := clock.Now()
		RunQED(sys, queries, mqo.OrChain)
		return clock.Now().Sub(start)
	}
	m := FitQEDModel(t1, 5, runMerged(5), 15, runMerged(15))

	// The fitted model predicts an unseen batch size within 10%.
	got := runMerged(10)
	pred := m.MergedTime(10)
	if rel := math.Abs(float64(got-pred)) / float64(got); rel > 0.10 {
		t.Fatalf("model predicts %v for batch 10, simulator %v (%.1f%% off)", pred, got, rel*100)
	}
}

func TestReduceMeasurementsDiscardsExtremes(t *testing.T) {
	s := Stock()
	reps := []Measurement{
		{Setting: s, CPUEnergy: 100, Time: 10 * sim.Second},
		{Setting: s, CPUEnergy: 1, Time: sim.Second},
		{Setting: s, CPUEnergy: 105, Time: 10 * sim.Second},
		{Setting: s, CPUEnergy: 1000, Time: 90 * sim.Second},
		{Setting: s, CPUEnergy: 95, Time: 10 * sim.Second},
	}
	got := Reduce(reps)
	if math.Abs(float64(got.CPUEnergy)-100) > 1e-9 {
		t.Fatalf("reduced energy = %v, want 100", got.CPUEnergy)
	}
	if got.Setting != s {
		t.Fatalf("reduced setting = %v, want %v", got.Setting, s)
	}
}

// TestReduceDiscardsExtremes drops the lowest- and highest-energy runs and
// averages both energy and time over the three that remain.
func TestReduceDiscardsExtremes(t *testing.T) {
	reps := []Measurement{
		{CPUEnergy: 100, Time: 10},
		{CPUEnergy: 10, Time: 1}, // low outlier
		{CPUEnergy: 105, Time: 11},
		{CPUEnergy: 500, Time: 50}, // high outlier
		{CPUEnergy: 95, Time: 9},
	}
	got := Reduce(reps)
	if math.Abs(float64(got.CPUEnergy)-100) > 1e-9 {
		t.Fatalf("reduced energy = %v, want 100", got.CPUEnergy)
	}
	if math.Abs(float64(got.Time)-10) > 1e-9 {
		t.Fatalf("reduced time = %v, want 10", got.Time)
	}
}

// TestReduceDiscardsTwoRunsWhenEnergiesTie pins the tie rule: five runs
// with one energy keep exactly three, the middle ones in run order.
func TestReduceDiscardsTwoRunsWhenEnergiesTie(t *testing.T) {
	var reps []Measurement
	for i := 1; i <= 5; i++ {
		reps = append(reps, Measurement{CPUEnergy: 50, Time: sim.Duration(i) * sim.Second})
	}
	if got := Reduce(reps); got.Time != 3*sim.Second || got.CPUEnergy != 50 {
		t.Fatalf("reduce of five equal-energy runs = %v over %v, want 50 J over 3 s (three runs kept)",
			got.CPUEnergy, got.Time)
	}
}

func TestReduceFewRuns(t *testing.T) {
	got := Reduce([]Measurement{{CPUEnergy: 10, Time: 1}, {CPUEnergy: 20, Time: 2}})
	if got.CPUEnergy != 15 || got.Time != 1.5 {
		t.Fatalf("two-run reduce = %v over %v, want both averaged: 15 J over 1.5 s", got.CPUEnergy, got.Time)
	}
	if got := Reduce(nil); got != (Measurement{}) {
		t.Fatalf("reduce of no runs = %+v, want the zero Measurement", got)
	}
}

func TestMeasureWorkloadExecutesEveryRun(t *testing.T) {
	sys, queries := testSystem(t)
	sys.Runs = 4
	q0 := obsv.Queries.Load()
	sys.MeasureWorkload(Stock(), queries[:2])
	if got, want := obsv.Queries.Load()-q0, int64(sys.Runs*2); got != want {
		t.Fatalf("MeasureWorkload executed %d queries, want %d (%d runs of 2)", got, want, sys.Runs)
	}
}

func TestMeasureWorkloadWithoutRunsPanics(t *testing.T) {
	sys, queries := testSystem(t)
	sys.Runs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureWorkload with Runs = 0 did not panic")
		}
	}()
	sys.MeasureWorkload(Stock(), queries[:1])
}
