// Golden tests pinning the simulated outputs — result rows, durations, and
// joules — of the end-to-end scenarios (the quickstart example, QED
// batching, the Figure 1 PVC sweep, the Figure 6 QED study, compressed
// storage, the shared-scan ablation, and the five-run protocol) byte for
// byte. The older files under testdata/golden were generated on the
// row-major []Row executor; the columnar refactor must reproduce them
// exactly, because floats are rendered in shortest-round-trip form (byte
// equality ⟺ bit equality).
// Regenerate deliberately with:
//
//	go test -run TestGolden -update-golden
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/experiments"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/mqo"
	"ecodb/internal/obsv"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files from this revision's outputs")

// fexact renders a float in shortest form that round-trips, so golden
// comparison is exact bit comparison.
func fexact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtValue(v expr.Value) string {
	switch v.Kind {
	case expr.KindNull:
		return "null"
	case expr.KindFloat:
		return "float:" + fexact(v.F)
	case expr.KindString:
		return "string:" + strconv.Quote(v.S)
	default:
		return fmt.Sprintf("%v:%d", v.Kind, v.I)
	}
}

func fmtRows(b *strings.Builder, rows []expr.Row) {
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = fmtValue(v)
		}
		fmt.Fprintf(b, "  %s\n", strings.Join(parts, " | "))
	}
}

func fmtMeasurement(b *strings.Builder, label string, m core.Measurement) {
	fmt.Fprintf(b, "%s: time=%s cpu=%s cpuExact=%s disk=%s wall=%s vmean=%s fmean=%s\n",
		label, fexact(float64(m.Time)), fexact(float64(m.CPUEnergy)),
		fexact(float64(m.CPUEnergyExact)), fexact(float64(m.DiskEnergy)),
		fexact(float64(m.WallEnergy)), fexact(float64(m.MeanVoltage)), fexact(m.MeanFreqGHz))
}

func fmtRunResult(b *strings.Builder, label string, r workload.RunResult) {
	fmt.Fprintf(b, "%s: total=%s\n", label, fexact(float64(r.Total)))
	for _, q := range r.Queries {
		fmt.Fprintf(b, "  %s start=%s end=%s rows=%d\n",
			q.ID, fexact(float64(q.Start)), fexact(float64(q.End)), q.Rows)
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden on a known-good revision): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from golden — simulated results/durations/joules are no longer bit-identical.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenQuickstart pins the quickstart example's numbers: one Q5
// execution plus a stock-vs-PVC measurement of the ten-query workload on
// the commercial profile.
func TestGoldenQuickstart(t *testing.T) {
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 50
	sys := core.NewSystem(prof)
	tpch.NewGenerator(0.01, 1).Load(sys.Engine.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	sys.Engine.WarmAll()

	var b strings.Builder
	res, stats := sys.Engine.Exec(tpch.Q5(sys.Engine.Catalog(), "ASIA", 1994))
	fmt.Fprintf(&b, "q5 rows (%d, %d bytes, duration=%s):\n",
		stats.RowsOut, stats.BytesOut, fexact(float64(stats.Duration)))
	fmtRows(&b, res.Rows)

	queries := workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog()))
	stock := sys.MeasureOnce(core.Stock(), func() {
		workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	})
	saving := sys.MeasureOnce(core.PVCSetting(0.05, cpu.DowngradeMedium), func() {
		workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	})
	fmtMeasurement(&b, "stock", stock)
	fmtMeasurement(&b, "pvcA", saving)

	checkGolden(t, "quickstart", b.String())
}

// TestGoldenQEDBatching pins the QED merged-batch path: sequential baseline
// versus a merged disjunctive flush on the MySQL MEMORY profile, including
// the application-side split's per-query cardinalities.
func TestGoldenQEDBatching(t *testing.T) {
	prof := engine.ProfileMySQLMemory()
	prof.WorkAmplification = 8
	sys := core.NewSystem(prof)
	tpch.NewGenerator(0.02, 3).Load(sys.Engine.Catalog(), tpch.Lineitem)

	const batchSize = 8
	queries := workload.NewQueries("sel", tpch.QuantityWorkload(sys.Engine.Catalog(), batchSize))
	clock := sys.Machine.Clock
	trace := sys.Machine.CPU.Trace()

	var b strings.Builder
	t0 := clock.Now()
	seq := workload.RunSequential(sys.Engine, clock, queries)
	fmt.Fprintf(&b, "seqEnergy=%s\n", fexact(float64(trace.Energy(t0, clock.Now()))))
	fmtRunResult(&b, "sequential", seq)

	t1 := clock.Now()
	batch := core.RunQED(sys, queries, mqo.OrChain)
	fmt.Fprintf(&b, "qedEnergy=%s\n", fexact(float64(trace.Energy(t1, clock.Now()))))
	fmtRunResult(&b, "qed", batch)

	checkGolden(t, "qed_batching", b.String())
}

// TestGoldenFig1 pins the Figure 1 PVC sweep (stock + settings A/B/C) on
// the commercial profile at reduced generated scale.
func TestGoldenFig1(t *testing.T) {
	cfg := experiments.Config{SF: 0.02, Amplification: 50, Seed: 42, ProtocolRuns: 1}
	r := experiments.Figure1(cfg)
	var b strings.Builder
	for _, m := range r.Measurements {
		fmtMeasurement(&b, m.Setting.String(), m)
	}
	checkGolden(t, "fig1", b.String())
}

// TestGoldenFig6 pins the Figure 6 QED study under both merge strategies:
// every batch size's sequential and QED mean response and energy.
func TestGoldenFig6(t *testing.T) {
	cfg := experiments.Config{SF: 0.0125, Amplification: 40, Seed: 42, ProtocolRuns: 1}
	var b strings.Builder
	fmtFigure6(&b, experiments.Figure6(cfg))
	fmtFigure6(&b, experiments.Figure6HashSet(cfg))
	checkGolden(t, "fig6", b.String())
}

// TestGoldenCompression pins the compressed-storage path byte for byte:
// the mixed range-plus-string workload run with zone-map pruning and
// dictionary strings ENABLED — result rows of one pruned range query, every
// query's cardinality and simulated timings, total joules, and the pages
// pruned. Together with the four legacy goldens (plain tables, stock
// profiles) this pins both sides of the compression choice.
func TestGoldenCompression(t *testing.T) {
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 50
	prof.ZoneMapPruning = true
	sys := core.NewSystem(prof)
	tables := []string{tpch.Customer, tpch.Orders, tpch.Lineitem}
	tpch.NewGenerator(0.02, 42).Load(sys.Engine.Catalog(), tables...)
	for _, name := range tables {
		sys.Engine.MustTable(name).Heap.CompressStrings()
	}
	sys.Engine.WarmAll()

	var b strings.Builder
	res, stats := sys.Engine.Exec(tpch.OrderkeyBandQuery(sys.Engine.Catalog(), 101, 4))
	fmt.Fprintf(&b, "band rows (%d, %d bytes, duration=%s):\n",
		stats.RowsOut, stats.BytesOut, fexact(float64(stats.Duration)))
	fmtRows(&b, res.Rows)

	pruned0 := obsv.PagesPruned.Load()
	queries := workload.NewQueries("comp", tpch.CompressionWorkload(sys.Engine.Catalog(), 0.02, 8))
	clock := sys.Machine.Clock
	trace := sys.Machine.CPU.Trace()
	t0 := clock.Now()
	run := workload.RunSequential(sys.Engine, clock, queries)
	fmt.Fprintf(&b, "energy=%s pruned=%d\n",
		fexact(float64(trace.Energy(t0, clock.Now()))), obsv.PagesPruned.Load()-pruned0)
	fmtRunResult(&b, "compressed", run)

	checkGolden(t, "compression", b.String())
}

// TestGoldenSharedScan pins the shared-scan ablation: sequential versus
// shared-pass energies, times, and pool touches at N=1/4/16.
func TestGoldenSharedScan(t *testing.T) {
	cfg := experiments.Config{SF: 0.02, Amplification: 50, Seed: 42, ProtocolRuns: 1}
	var b strings.Builder
	fmtSharedScans(&b, experiments.SharedScans(cfg))
	checkGolden(t, "sharedscan", b.String())
}

func fmtFigure6(b *strings.Builder, r experiments.Figure6Result) {
	fmt.Fprintf(b, "%s single=%s\n", r.Strategy, fexact(float64(r.SingleTime)))
	for _, p := range r.Points {
		fmt.Fprintf(b, "  batch=%d seqMean=%s seqEnergy=%s qedMean=%s qedEnergy=%s\n",
			p.BatchSize, fexact(float64(p.SeqMeanResponse)), fexact(float64(p.SeqEnergy)),
			fexact(float64(p.QEDMeanResponse)), fexact(float64(p.QEDEnergy)))
	}
}

func fmtSharedScans(b *strings.Builder, r experiments.SharedScanResult) {
	for _, p := range r.Points {
		fmt.Fprintf(b, "N=%d seqTime=%s sharedTime=%s seqEnergy=%s sharedEnergy=%s seqPerQuery=%s sharedPerQuery=%s poolSeq=%d poolShared=%d\n",
			p.N, fexact(float64(p.SeqTime)), fexact(float64(p.SharedTime)),
			fexact(float64(p.SeqEnergy)), fexact(float64(p.SharedEnergy)),
			fexact(float64(p.SeqPerQuery)), fexact(float64(p.SharedPerQuery)),
			p.PoolSeq, p.PoolShared)
	}
}

// TestGoldenProtocol pins the paper's five-run protocol end to end: every
// measured point below is reduced from five runs with the lowest- and
// highest-energy runs discarded, which the single-run goldens above never
// reach.
func TestGoldenProtocol(t *testing.T) {
	cfg := experiments.Config{SF: 0.005, Amplification: 200, Seed: 42, ProtocolRuns: 5}
	var b strings.Builder
	b.WriteString("fig1\n")
	for _, m := range experiments.Figure1(cfg).Measurements {
		fmtMeasurement(&b, m.Setting.String(), m)
	}
	b.WriteString("capvsuc\n")
	fmtAblation(&b, experiments.CapVsUnderclock(cfg).Points)
	b.WriteString("mechanisms\n")
	fmtAblation(&b, experiments.Mechanisms(cfg).Points)
	b.WriteString("fig6\n")
	fmtFigure6(&b, experiments.Figure6(experiments.Config{SF: 0.0125, Amplification: 40, Seed: 42, ProtocolRuns: 5}))
	b.WriteString("sharedscan\n")
	fmtSharedScans(&b, experiments.SharedScans(cfg))
	checkGolden(t, "protocol", b.String())
}

func fmtAblation(b *strings.Builder, pts []experiments.AblationPoint) {
	for _, p := range pts {
		fmt.Fprintf(b, "%s: topGHz=%s time=%s energy=%s edp=%s\n", p.Label, fexact(p.TopFreqGHz),
			fexact(p.TimeRatio), fexact(p.EnergyRatio), fexact(p.EDPChange))
	}
}
