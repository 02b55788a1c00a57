package experiments

import (
	"fmt"
	"strings"

	"ecodb/internal/core"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/mobo"
	"ecodb/internal/workload"
)

// AblationPoint is one measured configuration in an ablation study.
type AblationPoint struct {
	Label       string
	TimeRatio   float64
	EnergyRatio float64
	EDPChange   float64
	TopFreqGHz  float64
}

// CapVsUnderclockResult contrasts the paper's preferred FSB underclocking
// with traditional multiplier capping (§3: capping "puts a hard upper
// limit on the top p-state", losing a whole 333 MHz step per level, while
// underclocking "allows a finer granularity of CPU frequency modulation").
type CapVsUnderclockResult struct {
	Config Config
	Points []AblationPoint
}

// CapVsUnderclock measures the Q5 workload on the commercial profile under
// both mechanisms at the medium voltage downgrade: underclocking by
// 5/10/15% versus capping the multiplier at 9/8/7.
func CapVsUnderclock(cfg Config) CapVsUnderclockResult {
	sys, queries := newCommercialSystem(cfg)
	res := CapVsUnderclockResult{Config: cfg}

	measure := func(label string, apply func()) AblationPoint {
		sys.Machine.Tuner().Apply(mobo.Stock())
		sys.Machine.CPU.SetMultiplierCap(0)
		apply()
		p := ablationPoint(label, sys, queries)
		p.TopFreqGHz = sys.Machine.CPU.Freq(sys.Machine.CPU.TopPState()).GHz()
		return p
	}

	pts := []AblationPoint{measure("stock", func() {})}
	for _, uc := range []float64{0.05, 0.10, 0.15} {
		uc := uc
		pts = append(pts, measure(fmt.Sprintf("underclock %.0f%%/medium", uc*100), func() {
			sys.Machine.Tuner().Apply(mobo.Tuned(uc, cpu.DowngradeMedium))
		}))
	}
	for _, cap := range []float64{9, 8, 7} {
		cap := cap
		pts = append(pts, measure(fmt.Sprintf("cap %.0fx/medium", cap), func() {
			sys.Machine.Tuner().Apply(mobo.Tuned(0, cpu.DowngradeMedium))
			sys.Machine.CPU.SetMultiplierCap(cap)
		}))
	}
	sys.Machine.CPU.SetMultiplierCap(0)
	sys.Machine.Tuner().Apply(mobo.Stock())

	res.Points = relativeToStock(pts)
	return res
}

// ablationPoint measures the workload Runs times as the machine is set now
// and reduces the runs; its time and energy stay absolute until
// relativeToStock divides them by the stock point's.
func ablationPoint(label string, sys *core.System, queries []workload.Query) AblationPoint {
	reps := make([]core.Measurement, sys.Runs)
	for i := range reps {
		reps[i] = sys.Measure(func() { workload.RunSequential(sys.Engine, sys.Machine.Clock, queries) })
	}
	m := core.Reduce(reps)
	return AblationPoint{Label: label, TimeRatio: m.Time.Seconds(), EnergyRatio: float64(m.CPUEnergy)}
}

// relativeToStock turns absolute points into ratios to the first (stock)
// point, in place.
func relativeToStock(pts []AblationPoint) []AblationPoint {
	stockT, stockE := pts[0].TimeRatio, pts[0].EnergyRatio
	for i := range pts {
		pts[i].TimeRatio /= stockT
		pts[i].EnergyRatio /= stockE
		pts[i].EDPChange = pts[i].TimeRatio*pts[i].EnergyRatio - 1
	}
	return pts
}

func (r CapVsUnderclockResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: FSB underclocking vs multiplier capping (%s)\n", r.Config)
	fmt.Fprintf(&b, "  %-26s %10s %10s %10s %10s\n", "mechanism", "top GHz", "time×", "energy×", "EDP")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-26s %10.2f %10.3f %10.3f %+9.1f%%\n",
			p.Label, p.TopFreqGHz, p.TimeRatio, p.EnergyRatio, p.EDPChange*100)
	}
	b.WriteString("  (underclocking moves in ~160 MHz steps and keeps every p-state;\n")
	b.WriteString("   capping loses a full 333 MHz step per level — the paper's §3 argument)\n")
	return b.String()
}

// MechanismResult decomposes setting A's savings into the individual
// platform mechanisms the tuned profile enables.
type MechanismResult struct {
	Config Config
	Points []AblationPoint
}

// Mechanisms measures the Q5 workload with each tuned-profile mechanism
// enabled in isolation, quantifying where the paper's ~49% saving comes
// from on a stall-heavy commercial workload.
func Mechanisms(cfg Config) MechanismResult {
	sys, queries := newCommercialSystem(cfg)

	profiles := []struct {
		label string
		prof  mobo.Profile
	}{
		{"stock", mobo.Stock()},
		{"underclock 5% only", mobo.Profile{UnderclockFrac: 0.05}},
		{"medium downgrade only", mobo.Profile{Downgrade: cpu.DowngradeMedium}},
		{"light loadline only", mobo.Profile{LightLoadline: true}},
		{"EPU deep idle only", mobo.Profile{DeepIdle: true}},
		{"EPU stall downshift only", mobo.Profile{StallMultiplierCap: 6}},
		{"all (setting A)", mobo.Tuned(0.05, cpu.DowngradeMedium)},
	}

	var pts []AblationPoint
	for _, pc := range profiles {
		sys.Machine.Tuner().Apply(pc.prof)
		pts = append(pts, ablationPoint(pc.label, sys, queries))
	}
	sys.Machine.Tuner().Apply(mobo.Stock())
	return MechanismResult{Config: cfg, Points: relativeToStock(pts)}
}

func (r MechanismResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: mechanism decomposition of setting A (%s)\n", r.Config)
	fmt.Fprintf(&b, "  %-26s %10s %10s %10s\n", "mechanism", "time×", "energy×", "EDP")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-26s %10.3f %10.3f %+9.1f%%\n",
			p.Label, p.TimeRatio, p.EnergyRatio, p.EDPChange*100)
	}
	return b.String()
}
