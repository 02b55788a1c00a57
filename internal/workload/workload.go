// Package workload models query streams and their execution accounting:
// queries arriving with zero think time, executed one at a time (the
// paper's workload model in §4), with per-query response times measured
// from batch issue — the accounting QED's Figure 6 uses.
package workload

import (
	"fmt"

	"ecodb/internal/engine"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
)

// Query is one statement in a workload.
type Query struct {
	ID   string
	Plan plan.Node
}

// NewQueries wraps plans with sequential IDs.
func NewQueries(prefix string, plans []plan.Node) []Query {
	out := make([]Query, len(plans))
	for i, p := range plans {
		out[i] = Query{ID: fmt.Sprintf("%s-%02d", prefix, i+1), Plan: p}
	}
	return out
}

// QueryResult is one query's outcome within a batch run.
type QueryResult struct {
	ID string
	// Start and End are offsets from batch issue; End-Start is this
	// query's own execution window, End its response time under the
	// paper's "time starts when the batch is issued" accounting.
	Start, End sim.Duration
	Rows       int64
}

// Response returns the query's response time from batch issue.
func (q QueryResult) Response() sim.Duration { return q.End }

// RunResult is the outcome of executing a batch of queries.
type RunResult struct {
	Total   sim.Duration
	Queries []QueryResult
}

// MeanResponse returns the average per-query response time from batch
// issue — the Y axis of the paper's Figure 6.
func (r RunResult) MeanResponse() sim.Duration {
	if len(r.Queries) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, q := range r.Queries {
		sum += q.Response()
	}
	return sum / sim.Duration(len(r.Queries))
}

// MaxResponse returns the worst per-query response time.
func (r RunResult) MaxResponse() sim.Duration {
	var max sim.Duration
	for _, q := range r.Queries {
		if q.Response() > max {
			max = q.Response()
		}
	}
	return max
}

// TotalRows sums result cardinalities.
func (r RunResult) TotalRows() int64 {
	var n int64
	for _, q := range r.Queries {
		n += q.Rows
	}
	return n
}

// RunSequential executes the queries back to back on the engine — the
// traditional evaluation the paper compares QED against: "each query being
// evaluated individually, and one after the other". Time and energy cost
// start when the first query is sent.
func RunSequential(e *engine.Engine, clock *sim.Clock, queries []Query) RunResult {
	issue := clock.Now()
	out := RunResult{Queries: make([]QueryResult, 0, len(queries))}
	for _, q := range queries {
		start := clock.Now().Sub(issue)
		// Stream the result without materializing it: measurement loops
		// only need cardinalities, and the simulated result-path cost is
		// charged by the iterator either way.
		st := e.Query(q.Plan).Stats()
		out.Queries = append(out.Queries, QueryResult{
			ID:    q.ID,
			Start: start,
			End:   clock.Now().Sub(issue),
			Rows:  st.RowsOut,
		})
	}
	out.Total = clock.Now().Sub(issue)
	return out
}

// RunShared executes the queries as one co-admission window on a fresh
// shared-scan session (engine.RunWindow): every query starts up front,
// attaching its scan leaves to per-table circular passes at the same entry
// page, then the result streams are pulled round-robin, one batch per query
// per round, until all complete. For batches of streaming scans — the
// shared-scan target workload — heap pages are read and streamed once per
// table pass no matter how many queries consume them, while each query pays
// its own per-tuple CPU and result path: the shared-work generalization of
// QED's predicate merging. The window's size is the concurrency the
// optimizer (when the profile enables one) costs shared attaches with. All
// queries are issued together (Start 0) and each finishes when its own
// stream is exhausted.
func RunShared(e *engine.Engine, clock *sim.Clock, queries []Query) RunResult {
	issue := clock.Now()
	stmts := make([]engine.Stmt, len(queries))
	out := RunResult{Queries: make([]QueryResult, len(queries))}
	for i, q := range queries {
		stmts[i] = engine.Stmt{Plan: q.Plan}
		out.Queries[i] = QueryResult{ID: q.ID, Start: 0}
	}
	e.RunWindow(e.NewSharedSession(), stmts, nil, func(i int, r *engine.Rows, err error) {
		if err != nil {
			// No operator errors exist today; a partial shared batch
			// would silently corrupt the measurement, so fail loudly.
			panic(fmt.Sprintf("workload: shared query %s failed mid-stream: %v", queries[i].ID, err))
		}
		out.Queries[i].End = clock.Now().Sub(issue)
		out.Queries[i].Rows = r.Stats().RowsOut
	})
	out.Total = clock.Now().Sub(issue)
	return out
}
