// PVC sweep: generate the paper's Figure-1-style tradeoff curve for a
// TPC-H workload, then let the SLA advisor pick the most energy-efficient
// operating point that honours a 5% response-time budget.
package main

import (
	"fmt"
	"maps"
	"slices"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

func main() {
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 25 // emulate a larger scale factor
	sys := core.NewSystem(prof)
	sys.Runs = 3

	tpch.NewGenerator(0.02, 7).Load(sys.Engine.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	sys.Engine.WarmAll()
	queries := workload.NewQueries("q5", tpch.Q5Workload(sys.Engine.Catalog()))

	// Sweep all seven of the paper's operating points.
	pvc := core.NewPVC(sys)
	measurements := pvc.Sweep(core.PaperSettings(), queries)

	fmt.Println("tradeoff curve (the paper's Figure 1, as data):")
	for _, pt := range core.Relative(measurements) {
		fmt.Printf("  %s\n", pt)
	}

	// Work the curve backward into SLA terms (§1's SLA discussion).
	fmt.Println("\nminimum SLA slowdown admitting each setting:")
	sla := core.SLAFromCurve(measurements)
	for _, name := range slices.Sorted(maps.Keys(sla)) {
		fmt.Printf("  %-18s needs ≥%.3f× stock time\n", name, sla[name])
	}

	// Pick the best point under a 5% response-time SLA.
	advisor := core.Advisor{MaxSlowdown: 1.05}
	best, ok := advisor.Choose(measurements)
	if !ok {
		fmt.Println("\nno non-stock setting fits the SLA")
		return
	}
	fmt.Printf("\nadvisor (≤5%% slowdown) picks: %s\n", best.Setting)
	fmt.Printf("  %v\n", best)
}
