// Benchmarks for the executor hot path, measuring real Go wall-clock
// (ns/op), not simulated time: simulated durations and joules are
// batch-size invariant by design, so only real time can show what the
// vectorized batch pipeline costs.
package main

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/exec"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/system"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// benchTable loads a lineitem heap once for the scan benchmarks.
func benchTable(b *testing.B) *catalog.Table {
	b.Helper()
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.02, 42).Load(cat, tpch.Lineitem)
	return cat.MustTable(tpch.Lineitem)
}

func benchCtx() *exec.Ctx {
	clock := sim.NewClock()
	return &exec.Ctx{
		CPU:  cpu.New(cpu.E8500(), clock),
		Cost: engine.ProfileMySQLMemory().Cost,
	}
}

// BenchmarkQ5Exec measures a full TPC-H Q5 execution — the six-table hash
// join pipeline with aggregation and sort — through the batch executor.
func BenchmarkQ5Exec(b *testing.B) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	q5 := tpch.Q5(e.Catalog(), "ASIA", 1994)
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		st := e.Query(q5).Stats()
		rows = st.RowsOut
	}
	b.ReportMetric(float64(rows), "rows")
}
