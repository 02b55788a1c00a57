// Package experiments regenerates every table and figure in the paper's
// evaluation. Each experiment returns a typed result carrying both the
// measured values and the paper's published values, and renders a
// side-by-side text report; EXPERIMENTS.md is generated from these.
//
// Scale-factor note: experiments generate a reduced dataset and amplify
// per-row work by the inverse factor (engine.Profile.WorkAmplification), so
// absolute virtual runtimes and joules correspond to the paper's scale
// factors while keeping generation and Go-side execution cheap. The
// product SF × Amplification is the paper-equivalent scale factor.
package experiments

import (
	"fmt"
	"strings"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// Config controls dataset scale and measurement effort.
type Config struct {
	// SF is the generated TPC-H scale factor.
	SF float64
	// Amplification scales per-row work; SF×Amplification is the
	// paper-equivalent scale factor.
	Amplification float64
	// Seed drives data generation and sampling phase.
	Seed uint64
	// ProtocolRuns is the number of repetitions per measured point
	// (the paper uses 5, discarding the extremes); below 1 means one.
	ProtocolRuns int
}

// DefaultCommercialConfig emulates the paper's commercial-DBMS setup:
// TPC-H at paper-equivalent scale factor 1.0.
func DefaultCommercialConfig() Config {
	return Config{SF: 0.05, Amplification: 20, Seed: 42, ProtocolRuns: 5}
}

// DefaultMySQLConfig emulates the paper's MySQL MEMORY-engine setups. The
// paper-equivalent scale factor is 0.5 — the paper's QED scale; its PVC
// runs used 0.125, and all PVC results are stock-relative ratios, which the
// cost model keeps scale-invariant.
func DefaultMySQLConfig() Config {
	return Config{SF: 0.125, Amplification: 4, Seed: 42, ProtocolRuns: 5}
}

// EquivalentSF returns the paper-equivalent scale factor.
func (c Config) EquivalentSF() float64 { return c.SF * c.Amplification }

func (c Config) String() string {
	return fmt.Sprintf("sf=%g×%g (paper-equivalent %g), %d runs/point",
		c.SF, c.Amplification, c.EquivalentSF(), c.ProtocolRuns)
}

// system assembles an experiment arm's SUT: prof at the config's
// amplification, the named tables generated and loaded, the buffer pool
// warmed (a no-op on memory engines), and ProtocolRuns runs per measured
// point (at least one).
func (c Config) system(prof engine.Profile, tables ...string) *core.System {
	prof.WorkAmplification = c.Amplification
	sys := core.NewSystem(prof)
	tpch.NewGenerator(c.SF, c.Seed).Load(sys.Engine.Catalog(), tables...)
	sys.Engine.WarmAll()
	sys.Runs = max(c.ProtocolRuns, 1)
	return sys
}

// q5Tables are the tables TPC-H Q5 joins.
var q5Tables = []string{tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem}

// newCommercialSystem assembles the commercial-profile SUT with the Q5
// tables loaded and warm.
func newCommercialSystem(cfg Config) (*core.System, []workload.Query) {
	sys := cfg.system(engine.ProfileCommercial(), q5Tables...)
	return sys, workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog()))
}

// newMySQLSystem assembles the MySQL-MEMORY SUT with the Q5 tables loaded.
func newMySQLSystem(cfg Config) (*core.System, []workload.Query) {
	sys := cfg.system(engine.ProfileMySQLMemory(), q5Tables...)
	return sys, workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog()))
}

// Comparison is one paper-vs-measured line in a report.
type Comparison struct {
	Metric   string
	Paper    float64
	Measured float64
	Unit     string
}

// Dev returns the measured-vs-paper deviation as a fraction of the paper
// value (0 when the paper value is 0).
func (c Comparison) Dev() float64 {
	if c.Paper == 0 {
		return 0
	}
	return (c.Measured - c.Paper) / c.Paper
}

func renderComparisons(b *strings.Builder, comps []Comparison) {
	fmt.Fprintf(b, "  %-44s %10s %10s %8s\n", "metric", "paper", "measured", "dev")
	for _, c := range comps {
		fmt.Fprintf(b, "  %-44s %9.1f%s %9.1f%s %+7.1f%%\n",
			c.Metric, c.Paper, c.Unit, c.Measured, c.Unit, c.Dev()*100)
	}
}
