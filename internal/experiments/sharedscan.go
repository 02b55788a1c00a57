package experiments

import (
	"fmt"
	"strings"

	"ecodb/internal/core"
	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/mqo"
	"ecodb/internal/obsv"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// SharedScanPoint is one concurrency level's sequential-vs-shared
// comparison on the non-mergeable band-selection workload.
type SharedScanPoint struct {
	N int

	SeqTime    sim.Duration
	SharedTime sim.Duration
	SeqEnergy  energy.Joules
	// SharedEnergy is the batch's energy when QED serves it from one
	// shared heap pass.
	SharedEnergy energy.Joules
	// SeqPerQuery and SharedPerQuery are the joules-per-query the two
	// strategies pay at this concurrency.
	SeqPerQuery    energy.Joules
	SharedPerQuery energy.Joules
	// PoolSeq and PoolShared count buffer-pool touches (hits+misses): N
	// heap passes sequentially versus one pass shared.
	PoolSeq    int64
	PoolShared int64

	// EnergyRatio is shared/sequential batch energy; TimeRatio likewise.
	EnergyRatio float64
	TimeRatio   float64
}

// SharedScanResult is the shared-scan ablation: the QED band workload
// (range selections mqo.Merge rejects) replayed sequentially and from one
// shared pass, per concurrency level.
type SharedScanResult struct {
	Config Config
	Points []SharedScanPoint
}

// SharedScanConcurrencies are the batch sizes the ablation sweeps.
var SharedScanConcurrencies = []int{1, 4, 16}

// SharedScans replays a non-mergeable selection workload on the commercial
// profile, sequentially versus through QED (core.RunQED), which serves a
// batch mqo.Merge rejects from one shared pass, at increasing concurrency.
// Energies are exact trace integrals (what a better instrument than the
// paper's 1 Hz GUI sampler would read): the shared windows are short
// enough that sampling noise would otherwise drown the per-pass delta.
func SharedScans(cfg Config) SharedScanResult {
	sys := cfg.system(engine.ProfileCommercial(), tpch.Lineitem)
	clock := sys.Machine.Clock
	trace := sys.Machine.CPU.Trace()

	res := SharedScanResult{Config: cfg}
	for _, n := range SharedScanConcurrencies {
		queries := workload.NewQueries("band", tpch.QuantityBandWorkload(sys.Engine.Catalog(), n))

		seqRuns := make([]core.Measurement, sys.Runs)
		sharedRuns := make([]core.Measurement, sys.Runs)
		var poolSeq, poolShared int64
		for rep := range sys.Runs {
			// Pool touches come from the process-wide metrics registry —
			// storage_pool_reads_total ticks once per Access, so snapshot
			// deltas equal the old PoolStats hits+misses arithmetic.
			p0 := obsv.PoolReads.Load()
			t0 := clock.Now()
			workload.RunSequential(sys.Engine, clock, queries)
			seqRuns[rep] = core.Measurement{
				Time: clock.Now().Sub(t0), CPUEnergy: trace.Energy(t0, clock.Now())}
			p1 := obsv.PoolReads.Load()
			poolSeq = p1 - p0

			t1 := clock.Now()
			core.RunQED(sys, queries, mqo.OrChain)
			sharedRuns[rep] = core.Measurement{
				Time: clock.Now().Sub(t1), CPUEnergy: trace.Energy(t1, clock.Now())}
			poolShared = obsv.PoolReads.Load() - p1
		}
		seq, shared := core.Reduce(seqRuns), core.Reduce(sharedRuns)

		res.Points = append(res.Points, SharedScanPoint{
			N:              n,
			SeqTime:        seq.Time,
			SharedTime:     shared.Time,
			SeqEnergy:      seq.CPUEnergy,
			SharedEnergy:   shared.CPUEnergy,
			SeqPerQuery:    energy.PerQuery(seq.CPUEnergy, n),
			SharedPerQuery: energy.PerQuery(shared.CPUEnergy, n),
			PoolSeq:        poolSeq,
			PoolShared:     poolShared,
			EnergyRatio:    float64(shared.CPUEnergy) / float64(seq.CPUEnergy),
			TimeRatio:      float64(shared.Time) / float64(seq.Time),
		})
	}
	return res
}

func (r SharedScanResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shared scans: non-mergeable band selections, sharing vs sequential (%s)\n", r.Config)
	fmt.Fprintf(&b, "  %-4s %12s %12s %12s %12s %12s %12s %10s %10s %8s\n",
		"N", "seq time", "shared time", "seq J", "shared J", "seq J/q", "shared J/q",
		"pool seq", "pool shrd", "ΔJ")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-4d %12v %12v %12v %12v %12v %12v %10d %10d %+7.1f%%\n",
			p.N, p.SeqTime, p.SharedTime, p.SeqEnergy, p.SharedEnergy,
			p.SeqPerQuery, p.SharedPerQuery, p.PoolSeq, p.PoolShared,
			(p.EnergyRatio-1)*100)
	}
	b.WriteString("  (charging rules: buffer-pool/disk reads and page streaming once per\n")
	b.WriteString("   pass; per-tuple CPU and result path per consumer — so the joules\n")
	b.WriteString("   delta grows with N while answers stay bit-identical)\n")
	return b.String()
}
