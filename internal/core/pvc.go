package core

import (
	"fmt"

	"ecodb/internal/energy"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/mobo"
	"ecodb/internal/workload"
)

// Setting is one PVC operating point: an FSB underclock fraction combined
// with a voltage downgrade preset. The zero value is the stock setting.
type Setting struct {
	Name       string
	Underclock float64
	Downgrade  cpu.Downgrade
}

// IsStock reports whether this is the factory configuration.
func (s Setting) IsStock() bool { return s.Underclock == 0 && s.Downgrade == cpu.DowngradeNone }

// TunerProfile translates the setting into the 6-Engine platform profile:
// stock keeps factory aux settings; any PVC point also enables the paper's
// auxiliary tuned settings (light loadline, chipset downgrade, EPU idle
// management — §3.3).
func (s Setting) TunerProfile() mobo.Profile {
	if s.IsStock() {
		return mobo.Stock()
	}
	return mobo.Tuned(s.Underclock, s.Downgrade)
}

func (s Setting) String() string {
	if s.Name != "" {
		return s.Name
	}
	if s.IsStock() {
		return "stock"
	}
	return fmt.Sprintf("uc=%.0f%%/%s", s.Underclock*100, s.Downgrade)
}

// Stock returns the factory operating point.
func Stock() Setting { return Setting{Name: "stock"} }

// PVCSetting returns a named PVC operating point.
func PVCSetting(underclock float64, d cpu.Downgrade) Setting {
	return Setting{
		Name:       fmt.Sprintf("uc=%.0f%%/%s", underclock*100, d),
		Underclock: underclock,
		Downgrade:  d,
	}
}

// PaperSettings returns the seven operating points of the paper's §3.3:
// stock plus 5/10/15% underclocking under the small and medium voltage
// downgrades.
func PaperSettings() []Setting {
	out := []Setting{Stock()}
	for _, d := range []cpu.Downgrade{cpu.DowngradeSmall, cpu.DowngradeMedium} {
		for _, uc := range []float64{0.05, 0.10, 0.15} {
			out = append(out, PVCSetting(uc, d))
		}
	}
	return out
}

// MediumSettings returns stock plus the medium-downgrade points — the
// paper's Figure 1 series (settings A, B, C).
func MediumSettings() []Setting {
	return []Setting{
		Stock(),
		PVCSetting(0.05, cpu.DowngradeMedium),
		PVCSetting(0.10, cpu.DowngradeMedium),
		PVCSetting(0.15, cpu.DowngradeMedium),
	}
}

// PVC is the processor voltage/frequency control technique: it sweeps a
// workload across operating points and reports the measured tradeoff
// curve. This is the machinery that "generates graphs as shown in
// Figure 1" (§1's first open question).
type PVC struct {
	Sys *System
}

// NewPVC returns the PVC controller for a system.
func NewPVC(sys *System) *PVC { return &PVC{Sys: sys} }

// Sweep measures the workload under every setting (MeasureWorkload, Runs
// runs per point) and returns one Measurement per setting, in input order.
// The machine is left at stock afterwards.
func (p *PVC) Sweep(settings []Setting, queries []workload.Query) []Measurement {
	out := make([]Measurement, 0, len(settings))
	for _, s := range settings {
		out = append(out, p.Sys.MeasureWorkload(s, queries))
	}
	p.Sys.Machine.Tuner().Apply(mobo.Stock())
	return out
}

// stockBaseline returns the first measurement whose setting IsStock, nil
// if there is none.
func stockBaseline(ms []Measurement) *Measurement {
	for i := range ms {
		if ms[i].Setting.IsStock() {
			return &ms[i]
		}
	}
	return nil
}

// Point is one operating point expressed relative to a stock baseline —
// the ratio form the paper plots in Figures 2 and 3.
type Point struct {
	Setting     Setting
	EnergyRatio float64 // CPU energy / stock CPU energy
	TimeRatio   float64 // response time / stock response time
	EDPChange   float64 // relative EDP change, e.g. -0.47 for "47% lower"
}

// Relative converts measurements into stock-relative points. The baseline
// is the measurement whose setting IsStock; it panics if none exists,
// since ratios without a baseline are meaningless.
func Relative(ms []Measurement) []Point {
	base := stockBaseline(ms)
	if base == nil {
		panic("core: Relative requires a stock measurement as baseline")
	}
	out := make([]Point, len(ms))
	for i, m := range ms {
		out[i] = Point{
			Setting:     m.Setting,
			EnergyRatio: energy.Ratio(base.CPUEnergy, m.CPUEnergy),
			TimeRatio:   float64(m.Time) / float64(base.Time),
			EDPChange:   energy.RelChange(base.EDP(), m.EDP()),
		}
	}
	return out
}

func (pt Point) String() string {
	return fmt.Sprintf("%-22s energy×%.3f time×%.3f EDP%+.1f%%",
		pt.Setting, pt.EnergyRatio, pt.TimeRatio, pt.EDPChange*100)
}
