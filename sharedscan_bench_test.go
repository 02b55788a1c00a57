// Benchmark for the shared-scan subsystem: N concurrent non-mergeable
// selections served by one circular heap pass (core.RunQED on a batch
// mqo.Merge rejects) versus sequential execution. ns/op is real Go wall-clock; the
// headline simulated metrics — joules-per-query and buffer-pool touches —
// are reported via b.ReportMetric, and joules-per-query falls as N grows
// because the pass's I/O and page streaming are amortized across the
// batch.
package main

import (
	"fmt"
	"testing"

	"ecodb/internal/core"
	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/mqo"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// BenchmarkSharedScan sweeps batch size over the band-selection workload
// (range predicates mqo.Merge rejects) on the warm commercial profile.
func BenchmarkSharedScan(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			prof := engine.ProfileCommercial()
			sys := core.NewSystem(prof)
			tpch.NewGenerator(0.01, 42).Load(sys.Engine.Catalog(), tpch.Lineitem)
			sys.Engine.WarmAll()
			clock := sys.Machine.Clock
			trace := sys.Machine.CPU.Trace()
			queries := workload.NewQueries("band", tpch.QuantityBandWorkload(sys.Engine.Catalog(), n))
			b.ResetTimer()

			var perQuery energy.Joules
			var pool int64
			for i := 0; i < b.N; i++ {
				p0 := sys.Engine.Pool().Stats()
				t0 := clock.Now()
				core.RunQED(sys, queries, mqo.OrChain)
				perQuery = energy.PerQuery(trace.Energy(t0, clock.Now()), n)
				p1 := sys.Engine.Pool().Stats()
				pool = p1.Hits + p1.Misses - p0.Hits - p0.Misses
			}
			b.ReportMetric(float64(perQuery), "J/query")
			b.ReportMetric(float64(pool), "poolreads")
		})
	}
}

// BenchmarkSharedScanVsSequential reports the same batch executed without
// sharing, for the wall-clock and joules delta.
func BenchmarkSharedScanVsSequential(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			prof := engine.ProfileCommercial()
			sys := core.NewSystem(prof)
			tpch.NewGenerator(0.01, 42).Load(sys.Engine.Catalog(), tpch.Lineitem)
			sys.Engine.WarmAll()
			clock := sys.Machine.Clock
			trace := sys.Machine.CPU.Trace()
			queries := workload.NewQueries("band", tpch.QuantityBandWorkload(sys.Engine.Catalog(), n))
			b.ResetTimer()

			var perQuery energy.Joules
			for i := 0; i < b.N; i++ {
				t0 := clock.Now()
				workload.RunSequential(sys.Engine, clock, queries)
				perQuery = energy.PerQuery(trace.Energy(t0, clock.Now()), n)
			}
			b.ReportMetric(float64(perQuery), "J/query")
		})
	}
}
