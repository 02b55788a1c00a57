package core

import (
	"fmt"

	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/mqo"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/workload"
)

// RunQED executes one held batch the QED way — "improved Query
// Energy-efficiency by introducing explicit Delays" (§4): the mergeable
// queries are aggregated into one disjunctive query, executed once, and
// their results split back in application logic, whose cost is charged to
// the same machine as the paper does. Every member returns when the batch
// completes; response times are measured from batch issue.
//
// A batch mqo.Merge rejects (the paper's queue examination finds no common
// components) still shares work: more than one query rides one shared heap
// pass per table (workload.RunShared), a lone query runs by itself.
//
// Per the paper's accounting, queue-building time is not counted: "the
// queue of queries builds up in a master system that is always on... and
// the DBMS machine goes to sleep when there is no work".
func RunQED(sys *System, queries []workload.Query, strategy mqo.MergeStrategy) workload.RunResult {
	plans := make([]plan.Node, len(queries))
	for i := range queries {
		plans[i] = queries[i].Plan
	}
	merged, err := mqo.Merge(plans, strategy)
	if err != nil {
		if len(queries) > 1 {
			return workload.RunShared(sys.Engine, sys.Machine.Clock, queries)
		}
		return workload.RunSequential(sys.Engine, sys.Machine.Clock, queries)
	}

	clock := sys.Machine.Clock
	issue := clock.Now()

	// One aggregated query against the DBMS, a window of one, each result
	// batch routed by the application-side splitter as it arrives.
	split := merged.NewSplitter()
	sys.Engine.RunWindow(nil, []engine.Stmt{{Plan: merged.Plan}},
		func(_ int, b *expr.Batch) { split.Add(b) },
		func(_ int, _ *engine.Rows, err error) {
			if err != nil {
				// No operator errors exist today; a partial split would
				// silently corrupt the measurement, so fail loudly.
				panic(fmt.Sprintf("core: merged query failed mid-stream: %v", err))
			}
		})

	// Application-side split cost, charged to the same machine's CPU (the
	// paper's client runs on the SUT): routing result rows is
	// single-threaded, cache-missing object traversal, amplified like all
	// per-row work.
	counts, clientCycles := split.Finish()
	cpuModel := sys.Machine.CPU
	cpuModel.SetParallelism(1)
	cpuModel.Run(clientCycles*sys.Engine.Profile().Amplification(), cpu.MemStall)

	end := clock.Now().Sub(issue)
	out := workload.RunResult{Total: end, Queries: make([]workload.QueryResult, len(queries))}
	for i, query := range queries {
		// Every query returns when the batch completes.
		out.Queries[i] = workload.QueryResult{ID: query.ID, End: end, Rows: counts[i]}
	}
	return out
}

// Delay analysis helpers (§4 notes "the response time degradation is most
// severe for the first query in the batch, and least for the last").

// FirstQueryDegradation returns how much longer the first-submitted query
// waited under QED compared to running immediately alone, given the
// batch result and a single-query baseline duration.
func FirstQueryDegradation(batch workload.RunResult, single sim.Duration) sim.Duration {
	if len(batch.Queries) == 0 {
		return 0
	}
	return batch.Queries[0].Response() - single
}

// LastQueryDegradation is the same for the last query, whose sequential
// baseline would have been n·single.
func LastQueryDegradation(batch workload.RunResult, single sim.Duration) sim.Duration {
	n := len(batch.Queries)
	if n == 0 {
		return 0
	}
	return batch.Queries[n-1].Response() - sim.Duration(n)*single
}
