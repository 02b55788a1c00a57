package sql

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
)

// Explainer is the slice of an engine EXPLAIN needs: the tables to bind
// against and the optimizer environment to cost candidate plans in.
// *engine.Engine satisfies it.
type Explainer interface {
	Catalog() *catalog.Catalog
	OptimizerEnv() (opt.Env, opt.Objective)
}

// Explain renders the physical plan the optimizer would choose for a
// query — `EXPLAIN SELECT ...` or a bare SELECT — with per-operator
// estimated rows, cycles and joules. On engines whose objective is
// disabled the plan is costed under the latency objective, so EXPLAIN
// works everywhere without changing what executes.
func Explain(e Explainer, query string) (string, error) {
	stmt, err := Parse(query)
	if err != nil {
		return "", err
	}
	stmt.Explain, stmt.Analyze = false, false
	lg, err := BindLogical(e.Catalog(), stmt)
	if err != nil {
		return "", err
	}
	env, obj := e.OptimizerEnv()
	if !obj.Enabled {
		obj = opt.MinimizeLatency()
	}
	out, err := opt.Explain(lg, lg.DefaultChoices(), env, obj)
	if err != nil {
		return "", fmt.Errorf("sql: explain: %w", err)
	}
	return out, nil
}

// Analyzer is the slice of an engine EXPLAIN ANALYZE needs: plan binding
// plus profiled execution. *engine.Engine satisfies it.
type Analyzer interface {
	Explainer
	AnalyzeQuery(p plan.Node) (*obsv.Profile, error)
}

// ExplainAnalyze executes a query — `EXPLAIN ANALYZE SELECT ...` or a bare
// SELECT — with profiling enabled and renders its execution profile: the
// operator tree with actual rows (estimates alongside, when the engine's
// objective routes the statement through the optimizer), attributed
// simulated joules with each operator's share of the query total, and
// attributed simulated time. The statement really runs, charging all its
// simulated work, exactly as executing it without ANALYZE would.
func ExplainAnalyze(e Analyzer, query string) (string, error) {
	stmt, err := Parse(query)
	if err != nil {
		return "", err
	}
	stmt.Explain, stmt.Analyze = false, false
	p, err := Bind(e.Catalog(), stmt)
	if err != nil {
		return "", err
	}
	prof, err := e.AnalyzeQuery(p)
	if err != nil {
		return "", fmt.Errorf("sql: explain analyze: %w", err)
	}
	return prof.Render(), nil
}
