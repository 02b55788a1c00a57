package engine

import (
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// This file is the engine's observability edge: running a statement for its
// execution profile (the SQL front end's EXPLAIN ANALYZE) and snapshotting
// the process-wide metrics registry.

// AnalyzeQuery runs p to completion as a profiled statement and returns its
// execution profile. The statement really executes — every simulated
// charge, disk read, and clock advance happens exactly as Query would make
// them — because the profile is an observation of the run, not an estimate.
func (e *Engine) AnalyzeQuery(p plan.Node) (*obsv.Profile, error) {
	rows := e.start(nil, Stmt{Plan: p, Profile: true})
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return rows.Profile(), nil
}

// MetricsSnapshot returns a point-in-time copy of the process-wide metrics
// registry, with the engine's gauges (buffer-pool residency) refreshed
// first. Counters are monotonic over the process lifetime; callers wanting
// per-interval numbers difference two snapshots.
func (e *Engine) MetricsSnapshot() obsv.MetricsSnapshot {
	if e.pool != nil {
		obsv.Default().Gauge(obsv.MetricPoolResident).Set(float64(e.pool.Used()))
	}
	return obsv.Default().Snapshot()
}
