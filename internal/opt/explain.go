package opt

import (
	"fmt"
	"strings"

	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// Explain renders an optimizer choice for a logical plan: the execution
// configuration, the whole-plan estimates, and one line per operator with
// its estimated output rows, cycles, and joules under the chosen
// configuration. The output is deterministic for a given plan and
// environment, which is what lets golden tests pin it.
func Explain(lg *plan.Logical, env Env, ch *Choice) (string, error) {
	if env.CPU == nil {
		return "", fmt.Errorf("opt: explain needs a CPU model")
	}
	e := newEst(lg, env)
	order, builds, ops, ok := e.choiceOps(ch)
	if !ok {
		return "", fmt.Errorf("opt: choice does not lower against %s", lg.Describe())
	}

	var b strings.Builder
	access := "private-scan"
	if ch.Shared {
		access = "shared-scan"
	}
	fmt.Fprintf(&b, "objective=%s parallelism=%d access=%s pushdown=%s\n",
		ch.Objective, ch.Parallelism, access, ch.Phys.Pushdown)
	names := make([]string, len(order))
	for i, t := range order {
		names[i] = lg.Tables[t].Name
	}
	if len(order) > 1 {
		sides := make([]string, len(builds))
		for i, bl := range builds {
			if bl {
				sides[i] = "L"
			} else {
				sides[i] = "R"
			}
		}
		fmt.Fprintf(&b, "join order: %s  build sides: %s\n",
			strings.Join(names, " ⨝ "), strings.Join(sides, " "))
	}
	fmt.Fprintf(&b, "estimated: %s  %s  %s rows\n",
		fmtSecs(ch.EstSeconds), fmtJoules(ch.EstJoules), fmtRows(ch.EstRows))
	b.WriteString("operators:\n")
	for _, op := range ops {
		_, joules := e.timeEnergy(op.cyc, 0, ch.Parallelism, ch.Shared)
		fmt.Fprintf(&b, "  %-52s rows≈%-10s cycles≈%-10s %s\n",
			op.desc, fmtRows(op.rows), fmtCycles(op.cyc.total()), fmtJoules(joules))
	}
	return b.String(), nil
}

// choiceOps costs ch's shape operator by operator (planCycles with collect),
// its choices completed by plan.Logical.Complete.
func (e *est) choiceOps(ch *Choice) (order []int, builds []bool, ops []opEst, ok bool) {
	phys := e.lg.Complete(ch.Phys)
	_, _, ops, ok = e.planCycles(phys.JoinOrder, phys.BuildLeft, phys.Pushdown, true)
	return phys.JoinOrder, phys.BuildLeft, ops, ok
}

// OperatorEstimates returns the per-operator estimates of a choice in the
// profiler's join-up form: one record per operator planCycles costs, in the
// executor's post-order (scan leaves and joins bottom-up, then filters,
// aggregation, projection, sort, limit, result), each carrying estimated
// rows, seconds, and joules under the chosen configuration. The engine
// attaches these to the matching spans of the executed profile so EXPLAIN
// ANALYZE can print estimate-vs-actual per operator.
func OperatorEstimates(lg *plan.Logical, env Env, ch *Choice) []obsv.OpEstimate {
	if env.CPU == nil {
		return nil
	}
	e := newEst(lg, env)
	_, _, ops, ok := e.choiceOps(ch)
	if !ok {
		return nil
	}
	out := make([]obsv.OpEstimate, len(ops))
	for i, op := range ops {
		table := ""
		if op.scanTable >= 0 {
			table = lg.Tables[op.scanTable].Name
		}
		secs, joules := e.timeEnergy(op.cyc, 0, ch.Parallelism, ch.Shared)
		out[i] = obsv.OpEstimate{
			Kind:    op.kind,
			Table:   table,
			Desc:    op.desc,
			Rows:    op.rows,
			Seconds: secs,
			Joules:  joules,
		}
	}
	return out
}

func fmtSecs(s float64) string {
	switch {
	case s <= 0:
		return "0 s"
	case s < 1e-3:
		return fmt.Sprintf("%.1f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.3f s", s)
	}
}

func fmtJoules(j float64) string {
	switch {
	case j <= 0:
		return "0 J"
	case j < 1e-3:
		return fmt.Sprintf("%.1f µJ", j*1e6)
	case j < 1:
		return fmt.Sprintf("%.2f mJ", j*1e3)
	default:
		return fmt.Sprintf("%.3f J", j)
	}
}

func fmtRows(r float64) string {
	if r < 1 {
		return "0"
	}
	if r < 1e6 {
		return fmt.Sprintf("%.0f", r)
	}
	return fmt.Sprintf("%.3g", r)
}

func fmtCycles(c float64) string {
	if c < 1e4 {
		return fmt.Sprintf("%.0f", c)
	}
	return fmt.Sprintf("%.3g", c)
}
