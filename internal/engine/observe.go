package engine

import (
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// This file is the engine's observability edge: running a statement for its
// execution profile (the SQL front end's EXPLAIN ANALYZE). The metrics
// registry is process-wide and read through obsv.Default().

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
