// QED batching: hold a batch of 2%-selectivity selection queries, merge it
// into one disjunctive query, run it, split the results in application
// logic, and report the energy/response-time tradeoff against sequential
// execution.
package main

import (
	"fmt"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/mqo"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

func main() {
	prof := engine.ProfileMySQLMemory()
	prof.WorkAmplification = 8
	sys := core.NewSystem(prof)
	tpch.NewGenerator(0.05, 3).Load(sys.Engine.Catalog(), tpch.Lineitem)

	const batchSize = 20
	queries := workload.NewQueries("sel", tpch.QuantityWorkload(sys.Engine.Catalog(), batchSize))
	clock := sys.Machine.Clock
	trace := sys.Machine.CPU.Trace()

	// Baseline: the traditional scheme, queries one after the other.
	t0 := clock.Now()
	seq := workload.RunSequential(sys.Engine, clock, queries)
	seqEnergy := trace.Energy(t0, clock.Now())

	// QED: the held batch runs as one merged query.
	t1 := clock.Now()
	batch := core.RunQED(sys, queries, mqo.OrChain)
	qedEnergy := trace.Energy(t1, clock.Now())

	fmt.Printf("sequential: mean response %v, energy %v\n", seq.MeanResponse(), seqEnergy)
	fmt.Printf("QED:        mean response %v, energy %v\n", batch.MeanResponse(), qedEnergy)

	eR := float64(qedEnergy) / float64(seqEnergy)
	tR := float64(batch.MeanResponse()) / float64(seq.MeanResponse())
	fmt.Printf("\nQED saves %.1f%% energy for a %.1f%% longer mean response (EDP %+.1f%%)\n",
		100*(1-eR), 100*(tR-1), 100*(eR*tR-1))

	// The per-query view: first query waits longest (§4).
	single := seq.Queries[0].End - seq.Queries[0].Start
	fmt.Printf("first-query degradation: %v; last-query: %v\n",
		core.FirstQueryDegradation(batch, single),
		core.LastQueryDegradation(batch, single))
}
