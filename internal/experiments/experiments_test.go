package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ecodb/internal/hw/disk"
)

// lightCommercial keeps Go-side runtime low while preserving the
// paper-equivalent scale factor 1.0 (0.02 × 50).
func lightCommercial() Config {
	return Config{SF: 0.02, Amplification: 50, Seed: 42, ProtocolRuns: 3}
}

// lightMySQL preserves paper-equivalent scale factor 0.5 (0.05 × 10).
func lightMySQL() Config {
	return Config{SF: 0.05, Amplification: 10, Seed: 42, ProtocolRuns: 3}
}

// shorten reduces the generated scale factor under `go test -short`,
// raising amplification by the inverse ratio so the paper-equivalent scale
// (and therefore absolute simulated runtimes and joules) is preserved, and
// drops to a single protocol run. Quantization noise grows with the
// reduction, so tests with tight paper tolerances skip short mode instead
// of shrinking.
func shorten(cfg Config, shortSF float64) Config {
	if !testing.Short() {
		return cfg
	}
	cfg.Amplification *= cfg.SF / shortSF
	cfg.SF = shortSF
	cfg.ProtocolRuns = 1
	return cfg
}

// skipShort marks a test too tolerance-sensitive to run at reduced scale.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-tolerance test needs full generated scale; run without -short")
	}
}

func TestTable1WithinHalfWattOfPaper(t *testing.T) {
	r := Table1()
	if len(r.Stages) != 6 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	for _, c := range r.Comparisons() {
		if math.Abs(c.Measured-c.Paper) > 0.5 {
			t.Errorf("%s: measured %.1fW vs paper %.1fW", c.Metric, c.Measured, c.Paper)
		}
	}
	if !strings.Contains(r.String(), "Paper vs measured") {
		t.Fatal("rendering incomplete")
	}
}

func TestFigure1HeadlineClaims(t *testing.T) {
	r := Figure1(shorten(lightCommercial(), 0.005))
	if len(r.Measurements) != 4 {
		t.Fatalf("measurements = %d", len(r.Measurements))
	}
	stock, a, b, c := r.Measurements[0], r.Measurements[1], r.Measurements[2], r.Measurements[3]

	// Stock lands near the paper's absolute operating point.
	if math.Abs(stock.Time.Seconds()-48.5) > 3 {
		t.Errorf("stock time %v, paper 48.5s", stock.Time)
	}
	if math.Abs(float64(stock.CPUEnergy)-1228.7) > 120 {
		t.Errorf("stock CPU energy %v, paper 1228.7J", stock.CPUEnergy)
	}

	// Setting A: large energy saving for a small time penalty.
	eSave := 1 - float64(a.CPUEnergy)/float64(stock.CPUEnergy)
	tPen := a.Time.Seconds()/stock.Time.Seconds() - 1
	if eSave < 0.35 {
		t.Errorf("setting A saves %.1f%%, want ≥35%% (paper 49%%)", eSave*100)
	}
	if tPen > 0.06 || tPen < 0 {
		t.Errorf("setting A time penalty %.1f%%, want ≈3%%", tPen*100)
	}

	// B and C are dominated by A: slower AND hungrier (paper's Figure 1).
	if !(b.Time > a.Time && float64(b.CPUEnergyExact) > float64(a.CPUEnergyExact)) {
		t.Errorf("B (T=%v, E=%v) should be dominated by A (T=%v, E=%v)",
			b.Time, b.CPUEnergyExact, a.Time, a.CPUEnergyExact)
	}
	if !(c.Time > b.Time && float64(c.CPUEnergyExact) >= float64(b.CPUEnergyExact)) {
		t.Errorf("C (T=%v, E=%v) should be at least as bad as B (T=%v, E=%v)",
			c.Time, c.CPUEnergyExact, b.Time, b.CPUEnergyExact)
	}
}

func TestFigure2Orderings(t *testing.T) {
	// The EDP monotonicity orderings sit within GUI-sampling noise at
	// reduced generated scale, so this one needs the full dataset.
	skipShort(t)
	r := Figure2(lightCommercial())
	byName := map[string]float64{}
	for _, pt := range r.Points {
		byName[pt.Setting.String()] = pt.EDPChange
	}
	// All six PVC points improve EDP (paper: −15% to −47%).
	for name, edp := range byName {
		if name == "stock" {
			continue
		}
		if edp >= 0 {
			t.Errorf("%s EDP %+.1f%%, want negative", name, edp*100)
		}
	}
	// Medium dominates small at every underclock level.
	for _, uc := range []string{"5", "10", "15"} {
		s := byName["uc="+uc+"%/small"]
		m := byName["uc="+uc+"%/medium"]
		if m >= s {
			t.Errorf("medium EDP (%+.1f%%) should beat small (%+.1f%%) at %s%%", m*100, s*100, uc)
		}
	}
	// EDP worsens beyond 5% underclocking (the paper's key §3.3 finding).
	for _, dg := range []string{"small", "medium"} {
		e5 := byName["uc=5%/"+dg]
		e10 := byName["uc=10%/"+dg]
		e15 := byName["uc=15%/"+dg]
		if !(e5 < e10 && e10 < e15) {
			t.Errorf("%s EDP should worsen monotonically: %.1f/%.1f/%.1f",
				dg, e5*100, e10*100, e15*100)
		}
	}
}

func TestFigure3MatchesPaperBands(t *testing.T) {
	r := Figure3(shorten(lightMySQL(), 0.0125))
	byName := map[string]float64{}
	for _, pt := range r.Points {
		byName[pt.Setting.String()] = pt.EDPChange * 100
	}
	// MySQL is CPU-bound: savings are much smaller than the commercial
	// system's; each point within 8 EDP points of the paper.
	checks := []struct {
		name  string
		paper float64
	}{
		{"uc=5%/small", -7}, {"uc=10%/small", -0.4}, {"uc=15%/small", 9},
		{"uc=5%/medium", -16}, {"uc=10%/medium", -8}, {"uc=15%/medium", 0},
	}
	for _, c := range checks {
		got := byName[c.name]
		if math.Abs(got-c.paper) > 8 {
			t.Errorf("%s EDP %+.1f%%, paper %+.1f%% (tolerance 8 points)", c.name, got, c.paper)
		}
	}
	// The trend the paper highlights: underclocking beyond 5% worsens
	// EDP on the CPU-bound workload.
	if !(byName["uc=5%/small"] < byName["uc=10%/small"] &&
		byName["uc=10%/small"] < byName["uc=15%/small"]) {
		t.Error("small-downgrade EDP should rise with underclocking")
	}
}

func TestFigure4TheoryTracksObservation(t *testing.T) {
	r := Figure4(shorten(lightMySQL(), 0.0125))
	if len(r.Panels["small"]) != 4 || len(r.Panels["medium"]) != 4 {
		t.Fatalf("panels incomplete: %v", r.Panels)
	}
	// Paper: "the observed EDP closely matches the theoretical model".
	if div := r.MaxDivergence(); div > 0.12 {
		t.Errorf("observed vs V²/F diverges %.1f%%, want ≤12%%", div*100)
	}
	// Both observed and theoretical EDP rise with deeper underclocking.
	for _, panel := range []string{"small", "medium"} {
		pts := r.Panels[panel]
		for i := 2; i < len(pts); i++ {
			if pts[i].TheoreticalEDP <= pts[i-1].TheoreticalEDP {
				t.Errorf("%s theoretical EDP should rise from uc=%v to uc=%v",
					panel, pts[i-1].Setting.Underclock, pts[i].Setting.Underclock)
			}
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	r := Figure5()
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var seqTputs []float64
	randEnergy := map[int]float64{}
	for _, row := range r.Rows {
		if row.Pattern == disk.Sequential {
			seqTputs = append(seqTputs, row.ThroughputMBps)
		} else {
			randEnergy[row.BlockKB] = row.EnergyPerKBmJ
		}
	}
	// Sequential throughput flat across block sizes.
	for _, tput := range seqTputs {
		if math.Abs(tput-seqTputs[0]) > 1e-9 {
			t.Error("sequential throughput should not depend on block size")
		}
	}
	// Random energy/KB falls with block size; paper ratios within 15%.
	if !(randEnergy[4] > randEnergy[8] && randEnergy[8] > randEnergy[16] && randEnergy[16] > randEnergy[32]) {
		t.Error("random energy/KB should fall with block size")
	}
	ratios := r.RandomRatios()
	for i, paper := range PaperFig5RandomRatios {
		if math.Abs(ratios[i]-paper)/paper > 0.15 {
			t.Errorf("random ratio %d = %.2f, paper %.2f", i, ratios[i], paper)
		}
	}
}

func TestFigure6QEDClaims(t *testing.T) {
	cfg := shorten(lightMySQL(), 0.0125)
	cfg.ProtocolRuns = 2
	r := Figure6(cfg)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		// QED saves substantial energy at a substantial response cost.
		if p.EnergyRatio > 0.65 || p.EnergyRatio < 0.35 {
			t.Errorf("batch %d energy ratio %.2f, want ≈0.5 (paper 0.46-0.54)",
				p.BatchSize, p.EnergyRatio)
		}
		if p.ResponseRatio < 1.3 || p.ResponseRatio > 1.75 {
			t.Errorf("batch %d response ratio %.2f, want ≈1.5 (paper 1.43-1.52)",
				p.BatchSize, p.ResponseRatio)
		}
		// EDP improves (the technique operates below the iso-EDP curve).
		if p.EDPChange >= 0 {
			t.Errorf("batch %d EDP %+.1f%%, want negative", p.BatchSize, p.EDPChange*100)
		}
	}
	// Largest batch gives the best EDP (paper: batch 50 is best).
	if !(r.Points[3].EDPChange <= r.Points[0].EDPChange) {
		t.Errorf("batch 50 EDP (%+.1f%%) should be at least as good as batch 35 (%+.1f%%)",
			r.Points[3].EDPChange*100, r.Points[0].EDPChange*100)
	}
}

func TestFigure6HashSetBeatsOrChain(t *testing.T) {
	cfg := shorten(lightMySQL(), 0.0125)
	cfg.ProtocolRuns = 1
	or := Figure6(cfg)
	hash := Figure6HashSet(cfg)
	// The smarter merged plan can only help: less merged-query time.
	for i := range or.Points {
		if hash.Points[i].QEDMeanResponse > or.Points[i].QEDMeanResponse {
			t.Errorf("batch %d: hash-set response %v should not exceed or-chain %v",
				or.Points[i].BatchSize, hash.Points[i].QEDMeanResponse, or.Points[i].QEDMeanResponse)
		}
	}
}

func TestWarmColdClaims(t *testing.T) {
	r := WarmCold(shorten(lightCommercial(), 0.005))
	slow := float64(r.Cold.Time) / float64(r.Warm.Time)
	if slow < 2.2 || slow > 4.5 {
		t.Errorf("cold/warm slowdown %.2f, want ≈3 (paper)", slow)
	}
	// Warm: disk ≈ 1/6 of CPU energy; cold: more than half.
	warmRatio := float64(r.Warm.DiskEnergy) / float64(r.Warm.CPUEnergy)
	coldRatio := float64(r.Cold.DiskEnergy) / float64(r.Cold.CPUEnergy)
	if warmRatio < 0.10 || warmRatio > 0.30 {
		t.Errorf("warm disk/CPU energy = %.2f, paper ≈0.17", warmRatio)
	}
	if coldRatio < 0.4 {
		t.Errorf("cold disk/CPU energy = %.2f, paper >0.5", coldRatio)
	}
}

func TestConfigEquivalentSF(t *testing.T) {
	cfg := Config{SF: 0.05, Amplification: 20}
	if cfg.EquivalentSF() != 1.0 {
		t.Fatalf("equivalent SF = %v", cfg.EquivalentSF())
	}
}

// TestZeroProtocolRunsMeasuresOnce pins Config.system's floor: a Config
// that leaves ProtocolRuns at zero measures every point once, exactly as
// ProtocolRuns 1 does, instead of reducing no runs into NaN ratios.
func TestZeroProtocolRunsMeasuresOnce(t *testing.T) {
	zero := Config{SF: 0.002, Amplification: 500, Seed: 42}
	one := zero
	one.ProtocolRuns = 1
	if got, want := Mechanisms(zero).Points, Mechanisms(one).Points; !reflect.DeepEqual(got, want) {
		t.Errorf("mechanisms at 0 runs = %+v, want the 1-run points %+v", got, want)
	}
	if got, want := Figure1(zero).Measurements, Figure1(one).Measurements; !reflect.DeepEqual(got, want) {
		t.Errorf("figure 1 at 0 runs = %+v, want the 1-run measurements %+v", got, want)
	}
}

func TestRenderings(t *testing.T) {
	// Every result type renders without panicking and mentions its
	// figure.
	cfg := lightMySQL()
	cfg.ProtocolRuns = 1
	cases := []struct {
		name string
		s    string
	}{
		{"fig5", Figure5().String()},
	}
	for _, c := range cases {
		if !strings.Contains(c.s, "Figure") {
			t.Errorf("%s rendering missing title:\n%s", c.name, c.s)
		}
	}
}

func TestCapVsUnderclockGranularity(t *testing.T) {
	cfg := shorten(lightCommercial(), 0.005)
	cfg.ProtocolRuns = 1
	r := CapVsUnderclock(cfg)
	if len(r.Points) != 7 {
		t.Fatalf("points = %d", len(r.Points))
	}
	byLabel := map[string]AblationPoint{}
	for _, p := range r.Points {
		byLabel[p.Label] = p
	}
	// Underclocking 5% keeps the top frequency above every cap level —
	// the finer-grained control of §3.
	uc5 := byLabel["underclock 5%/medium"]
	for _, cap := range []string{"cap 9x/medium", "cap 8x/medium", "cap 7x/medium"} {
		if byLabel[cap].TopFreqGHz >= uc5.TopFreqGHz {
			t.Errorf("%s top freq %.2f should sit below 5%% underclock %.2f",
				cap, byLabel[cap].TopFreqGHz, uc5.TopFreqGHz)
		}
	}
	// Deeper caps are slower.
	if !(byLabel["cap 7x/medium"].TimeRatio > byLabel["cap 9x/medium"].TimeRatio) {
		t.Error("deeper caps should be slower")
	}
	// All points render.
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestMechanismDecomposition(t *testing.T) {
	cfg := shorten(lightCommercial(), 0.005)
	cfg.ProtocolRuns = 1
	r := Mechanisms(cfg)
	byLabel := map[string]AblationPoint{}
	for _, p := range r.Points {
		byLabel[p.Label] = p
	}
	all := byLabel["all (setting A)"]
	if all.EnergyRatio >= 1 {
		t.Fatalf("combined setting saves nothing: %v", all.EnergyRatio)
	}
	// The substantive isolated mechanisms save energy, and none alone
	// matches the combination. (Deep idle alone only touches the small
	// I/O-wait share of a warm run, so it stays within sampling noise and
	// is reported but not asserted.)
	for _, label := range []string{
		"medium downgrade only", "EPU stall downshift only",
	} {
		p := byLabel[label]
		if p.EnergyRatio >= 1.0 {
			t.Errorf("%s should save energy, ratio %.3f", label, p.EnergyRatio)
		}
		if p.EnergyRatio <= all.EnergyRatio {
			t.Errorf("%s alone (%.3f) should not beat the combination (%.3f)",
				label, p.EnergyRatio, all.EnergyRatio)
		}
	}
	// The stall downshift is the dominant single mechanism on this
	// stall-heavy workload.
	downshift := byLabel["EPU stall downshift only"]
	for _, other := range []string{"medium downgrade only", "light loadline only", "underclock 5% only"} {
		if byLabel[other].EnergyRatio < downshift.EnergyRatio {
			t.Errorf("stall downshift (%.3f) should dominate %s (%.3f)",
				downshift.EnergyRatio, other, byLabel[other].EnergyRatio)
		}
	}
}

func TestSharedScanAblation(t *testing.T) {
	cfg := shorten(lightCommercial(), 0.005)
	r := SharedScans(cfg)
	if len(r.Points) != len(SharedScanConcurrencies) {
		t.Fatalf("%d points, want %d", len(r.Points), len(SharedScanConcurrencies))
	}
	pages := int64(0)
	for _, p := range r.Points {
		if p.N == 1 {
			// Nothing to share at N=1: both arms are one pass.
			pages = p.PoolShared
			continue
		}
		// One pass shared vs N passes sequential.
		if p.PoolShared != pages {
			t.Errorf("N=%d: shared pool touches %d, want one pass (%d)", p.N, p.PoolShared, pages)
		}
		if p.PoolSeq != int64(p.N)*pages {
			t.Errorf("N=%d: sequential pool touches %d, want %d", p.N, p.PoolSeq, int64(p.N)*pages)
		}
		if p.EnergyRatio >= 1 {
			t.Errorf("N=%d: sharing saves no energy (ratio %.3f)", p.N, p.EnergyRatio)
		}
		if p.TimeRatio >= 1 {
			t.Errorf("N=%d: sharing saves no time (ratio %.3f)", p.N, p.TimeRatio)
		}
		// Joules-per-query: the shared batch beats its own sequential arm.
		// (Strict decrease ACROSS N on identical queries is asserted at the
		// QED layer; band queries differ slightly in result size per N.)
		if p.SharedPerQuery >= p.SeqPerQuery {
			t.Errorf("N=%d: shared J/query %v not below sequential %v", p.N, p.SharedPerQuery, p.SeqPerQuery)
		}
	}
}

func TestOptimizerAblation(t *testing.T) {
	cfg := Config{SF: 0.05, Amplification: 20, Seed: 42, ProtocolRuns: 1}
	if testing.Short() {
		cfg = Config{SF: 0.01, Amplification: 100, Seed: 42, ProtocolRuns: 1}
	}
	r := Optimizer(cfg)

	// The optimizer's hard safety property: whatever plans the objectives
	// pick, every query's rows are bit-identical across all three arms.
	if !r.RowsIdentical {
		t.Fatal("optimized arms returned different rows than the hand-lowered baseline")
	}
	// The paper's operating-point claim: the two objectives choose
	// different physical plans for the same batch...
	if !r.PlanFlipped {
		t.Fatalf("latency and joules objectives chose the same plan: %q", r.Arms[1].Plan)
	}
	if !strings.Contains(r.Arms[1].Plan, "private") {
		t.Errorf("latency arm should scan privately, chose %q", r.Arms[1].Plan)
	}
	if !strings.Contains(r.Arms[2].Plan, "shared") {
		t.Errorf("joules arm should ride the shared pass, chose %q", r.Arms[2].Plan)
	}
	// ...and the joules plan buys a real saving: >=10% lower J/query under
	// equal-window accounting, paid for with a longer makespan.
	if s := r.JouleSavingPct(); s < 10 {
		t.Errorf("window J/query saving %.1f%%, want >= 10%%", s)
	}
	if r.Arms[2].Time <= r.Arms[1].Time {
		t.Errorf("joules arm should trade time for energy: %v vs latency %v", r.Arms[2].Time, r.Arms[1].Time)
	}
	if r.Arms[2].PerQuery >= r.Arms[1].PerQuery {
		t.Errorf("joules arm burns more even before window accounting: %v vs %v", r.Arms[2].PerQuery, r.Arms[1].PerQuery)
	}
	if !strings.Contains(r.String(), "plan flipped across objectives: yes") {
		t.Fatal("report should state the flip")
	}
}
