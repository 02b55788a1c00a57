package experiments

import (
	"fmt"
	"strings"
	"time"

	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// OptimizerArm is one objective's run of the Q5 batch.
type OptimizerArm struct {
	Name string
	// Plan summarizes the optimizer's choice for the batch's queries
	// (every Q5 instance gets the same shape).
	Plan string
	// Wall is real Go time for the batch (best of ProtocolRuns); Time is
	// the simulated batch makespan and PerQuery the simulated CPU joules
	// per query while the batch runs (first run).
	Wall     time.Duration
	Time     sim.Duration
	PerQuery energy.Joules
	// RegistryPerQuery is the same arm read through the process-wide
	// metrics registry: the engine_query_joules_total.<objective> counter's
	// delta over the run, divided by the batch size. Each query's counter
	// contribution integrates that query's own admit→finish window, so for
	// a co-admitted batch the windows overlap and this reads the mean
	// per-query response-window energy — a response-centric number, unlike
	// PerQuery's share of the batch makespan.
	RegistryPerQuery energy.Joules
	// WindowPerQuery is simulated joules per query over the common
	// observation window — the slowest arm's makespan. An arm that finishes
	// early does not power the machine off; it idles at the profile's idle
	// draw until the window closes. This equal-window accounting is how
	// strategies of different duration compare in the paper's
	// operating-point argument, and it is the ablation's headline metric.
	WindowPerQuery energy.Joules

	batch energy.Joules // total batch energy over the arm's own makespan
	idleW energy.Watts  // the arm's machine idle draw, for the window tail
}

// OptimizerResult is the cost-and-energy optimizer ablation: the paper's
// ten-query Q5 workload arrives as one co-admitted batch on a shared
// session, replayed under three profiles — optimizer disabled (the
// hand-lowered plans, legacy shared execution), the latency objective,
// and the joules objective. The optimizer re-plans each statement: the
// latency objective detaches from the shared pass, reorders the joins and
// runs on every configured core; the joules objective keeps single-core
// execution and rides the shared pass, amortizing lineitem's page
// streaming across the whole batch. Result rows must be byte-identical in
// all three arms — the optimizer may only change how the answer is
// computed, never the answer.
type OptimizerResult struct {
	Config  Config
	Queries int
	Arms    []OptimizerArm // baseline, latency, joules
	// PlanFlipped reports that the latency- and joules-objective physical
	// plans differ (shape, parallelism, or access path).
	PlanFlipped bool
	// RowsIdentical is the correctness gate: every query returned
	// bit-identical rows (values and order) in all three arms.
	RowsIdentical bool
}

// Optimizer runs the optimizer ablation on the commercial profile, a
// fresh system per arm (background-I/O randomness advances with every
// page read, so only from-boot replays compare).
func Optimizer(cfg Config) OptimizerResult {
	res := OptimizerResult{Config: cfg}

	arm := func(name string, obj opt.Objective) (OptimizerArm, [][]expr.Row) {
		prof := engine.ProfileCommercial()
		prof.Objective = obj
		sys := cfg.system(prof, q5Tables...)
		clock := sys.Machine.Clock
		trace := sys.Machine.CPU.Trace()
		plans := tpch.Q5Workload(sys.Engine.Catalog())
		res.Queries = len(plans)

		a := OptimizerArm{Name: name, Plan: chosenPlan(sys.Engine, plans[0], len(plans))}
		var rows [][]expr.Row
		for rep := range sys.Runs {
			j0 := obsv.QueryJoules(obj.String()).Load()
			t0 := clock.Now()
			w0 := time.Now()
			got := runCoAdmitted(sys.Engine, plans)
			w := time.Since(w0)
			if rep == 0 || w < a.Wall {
				a.Wall = w
			}
			if rep == 0 {
				a.Time = clock.Now().Sub(t0)
				a.batch = trace.Energy(t0, clock.Now())
				a.PerQuery = energy.PerQuery(a.batch, len(plans))
				a.RegistryPerQuery = energy.PerQuery(
					energy.Joules(obsv.QueryJoules(obj.String()).Load()-j0), len(plans))
				a.idleW = sys.Machine.CPU.IdlePower()
				rows = got
			}
		}
		return a, rows
	}

	base, baseRows := arm("baseline", opt.Objective{})
	lat, latRows := arm("latency", opt.MinimizeLatency())
	jou, jouRows := arm("joules", opt.MinimizeJoules())
	res.Arms = []OptimizerArm{base, lat, jou}

	// Equal-window energy: every arm is observed for as long as the slowest
	// one runs, idling at its own machine's idle draw after finishing.
	var window sim.Duration
	for _, a := range res.Arms {
		window = max(window, a.Time)
	}
	for i := range res.Arms {
		a := &res.Arms[i]
		tail := a.idleW.For((window - a.Time).Seconds())
		a.WindowPerQuery = energy.PerQuery(a.batch+tail, res.Queries)
	}

	res.PlanFlipped = lat.Plan != jou.Plan
	res.RowsIdentical = batchesEqual(baseRows, latRows) && batchesEqual(baseRows, jouRows)
	return res
}

// runCoAdmitted runs the plans as one co-admission window on a fresh shared
// session (so shared attaches all enter at the same pass position, and the
// optimizer costs them at the batch's size), materializing each query's
// rows.
func runCoAdmitted(e *engine.Engine, plans []plan.Node) [][]expr.Row {
	stmts := make([]engine.Stmt, len(plans))
	for i, p := range plans {
		stmts[i] = engine.Stmt{Plan: p}
	}
	out := make([][]expr.Row, len(plans))
	e.RunWindow(e.NewSharedSession(), stmts, func(i int, _ *engine.Rows, b *expr.Batch) {
		out[i] = b.AppendRowsTo(out[i])
	}, func(i int, _ *engine.Rows, err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: optimizer batch query %d failed: %v", i, err))
		}
	})
	return out
}

// chosenPlan renders what the engine's optimizer picks for p at the given
// shared concurrency — "hand-lowered" when the objective is disabled or
// the plan bypasses optimization.
func chosenPlan(e *engine.Engine, p plan.Node, sharedQ int) string {
	env, obj := e.OptimizerEnv()
	if !obj.Enabled {
		return "hand-lowered (objective disabled)"
	}
	lg, basePhys, err := opt.Extract(p)
	if err != nil {
		return "hand-lowered (no logical origin)"
	}
	env.SharedConcurrency = sharedQ
	ch, err := opt.Optimize(lg, basePhys, env, obj)
	if err != nil {
		return "hand-lowered (no admissible plan)"
	}
	names := make([]string, len(ch.Phys.JoinOrder))
	for i, t := range ch.Phys.JoinOrder {
		names[i] = lg.Tables[t].Name
	}
	sides := make([]string, len(ch.Phys.BuildLeft))
	for i, bl := range ch.Phys.BuildLeft {
		if bl {
			sides[i] = "L"
		} else {
			sides[i] = "R"
		}
	}
	access := "private"
	if ch.Shared {
		access = "shared"
	}
	return fmt.Sprintf("%s | builds %s | par=%d %s",
		strings.Join(names, "⨝"), strings.Join(sides, ""), ch.Parallelism, access)
}

func batchesEqual(a, b [][]expr.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if a[i][j][k] != b[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

// JouleSavingPct returns the joules arm's per-query energy saving as a
// percentage of the latency arm, under equal-window accounting.
func (r OptimizerResult) JouleSavingPct() float64 {
	if len(r.Arms) < 3 || r.Arms[1].WindowPerQuery == 0 {
		return 0
	}
	return (1 - float64(r.Arms[2].WindowPerQuery)/float64(r.Arms[1].WindowPerQuery)) * 100
}

func (r OptimizerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost-and-energy optimizer ablation (%s)\n", r.Config)
	fmt.Fprintf(&b, "  %d-query TPC-H Q5 batch, co-admitted; objective varies per arm\n\n", r.Queries)
	fmt.Fprintf(&b, "  %-10s %12s %12s %10s %12s %12s  %s\n",
		"arm", "wall", "sim time", "J/query", "J/q window", "J/q registry", "chosen plan")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "  %-10s %12v %12v %10v %12v %12v  %s\n",
			a.Name, a.Wall.Round(time.Microsecond), a.Time, a.PerQuery, a.WindowPerQuery,
			a.RegistryPerQuery, a.Plan)
	}
	flip := "no"
	if r.PlanFlipped {
		flip = "yes"
	}
	rowsOK := "yes"
	if !r.RowsIdentical {
		rowsOK = "NO (BUG)"
	}
	fmt.Fprintf(&b, "\n  plan flipped across objectives: %s   window J/query saving (joules vs latency): %.1f%%   results identical: %s\n",
		flip, r.JouleSavingPct(), rowsOK)
	b.WriteString("\n  The latency objective leaves the shared pass and spreads compute across\n")
	b.WriteString("  cores; the joules objective rides one shared heap pass single-core, trading\n")
	b.WriteString("  response time for amortized page streaming and lower-power stalls. The\n")
	b.WriteString("  window column observes every arm for the slowest arm's makespan — a machine\n")
	b.WriteString("  that finishes early still burns idle watts — which is how strategies of\n")
	b.WriteString("  different duration compare in the paper's operating-point argument.\n")
	return b.String()
}
