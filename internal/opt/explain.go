package opt

import (
	"strconv"
	"time"
	"unicode/utf8"

	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// Explain optimizes lg from base under obj, as Plan does (timing the
// planning into engine_planning_seconds), and renders the choice from the
// same estimate: the execution configuration, the whole-plan estimates,
// and one line per operator with its estimated output rows, cycles, and
// joules under the chosen configuration. The output is deterministic for a
// given plan and environment, which is what lets golden tests pin it.
func Explain(lg *plan.Logical, base plan.PhysChoices, env Env, obj Objective) (string, error) {
	t0 := time.Now()
	e, ch, err := optimize(lg, base, env, obj)
	observePlanning(t0)
	defer e.release()
	if err != nil {
		return "", err
	}
	ops, _ := e.choiceOps(ch) // it lowered when it was scored

	access := "private-scan"
	if ch.Shared {
		access = "shared-scan"
	}
	b := append(append(e.buf[:0], "objective="...), ch.Objective.String()...)
	b = append(appendInt(b, " parallelism=", ch.Parallelism, " access="), access...)
	b = append(append(append(b, " pushdown="...), ch.Phys.Pushdown.String()...), '\n')
	if order := ch.Phys.JoinOrder; len(order) > 1 {
		b = append(append(b, "join order: "...), lg.Tables[order[0]].Name...)
		for _, t := range order[1:] {
			b = append(append(b, " ⨝ "...), lg.Tables[t].Name...)
		}
		b = append(b, "  build sides:"...)
		for _, bl := range ch.Phys.BuildLeft {
			side := " R"
			if bl {
				side = " L"
			}
			b = append(b, side...)
		}
		b = append(b, '\n')
	}
	b = appendQty(append(b, "estimated: "...), ch.EstSeconds, "s")
	b = appendQty(append(b, "  "...), ch.EstJoules, "J")
	b = append(appendRows(append(b, "  "...), ch.EstRows), " rows\noperators:\n"...)
	for _, op := range ops {
		_, joules := e.timeEnergy(op.cyc, 0, ch.Parallelism, ch.Shared)
		at := len(b) + 2
		b = append(pad(e.appendDesc(append(b, "  "...), op), at, 52), " rows≈"...)
		at = len(b)
		b = append(pad(appendRows(b, op.rows), at, 10), " cycles≈"...)
		at = len(b)
		b = append(appendQty(append(pad(appendCycles(b, op.cyc.total()), at, 10), ' '), joules, "J"), '\n')
	}
	e.buf = b
	return string(b), nil
}

// pad appends spaces until b[from:] is w runes long, as fmt's %-*s pads.
func pad(b []byte, from, w int) []byte {
	for n := utf8.RuneCount(b[from:]); n < w; n++ {
		b = append(b, ' ')
	}
	return b
}

// choiceOps costs ch's shape operator by operator (planCycles with collect),
// its choices completed by plan.Logical.Complete.
func (e *est) choiceOps(ch *Choice) ([]opEst, bool) {
	phys := e.lg.Complete(ch.Phys)
	_, _, ok := e.planCycles(phys.JoinOrder, phys.BuildLeft, phys.Pushdown, true)
	return e.ops, ok
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
	defer e.release()
	ops, ok := e.choiceOps(ch)
	if !ok {
		return nil
	}
	out := make([]obsv.OpEstimate, len(ops))
	for i, op := range ops {
		table := ""
		if op.kind == obsv.KindScan {
			table = lg.Tables[op.table].Name
		}
		secs, joules := e.timeEnergy(op.cyc, 0, ch.Parallelism, ch.Shared)
		e.buf = e.appendDesc(e.buf[:0], op)
		out[i] = obsv.OpEstimate{
			Kind:    op.kind,
			Table:   table,
			Desc:    string(e.buf),
			Rows:    op.rows,
			Seconds: secs,
			Joules:  joules,
		}
	}
	return out
}

// appendDesc appends op's EXPLAIN label.
func (e *est) appendDesc(b []byte, op opEst) []byte {
	lg := e.lg
	switch op.kind {
	case obsv.KindScan:
		b = append(append(b, "Scan("...), lg.Tables[op.table].Name...)
		if op.flag {
			b = append(b, ", filtered"...)
		}
	case obsv.KindJoin:
		c, side := lg.Conjuncts[op.conj], ", build=right"
		if op.flag {
			side = ", build=left"
		}
		b = appendQualCol(append(appendQualCol(append(b, "HashJoin("...), lg, c.LeftCol), " = "...), lg, c.RightCol)
		if b = append(b, side...); op.residuals > 0 {
			b = appendInt(b, ", ", op.residuals, " residuals")
		}
	case obsv.KindFilter:
		b = append(append(b, "Filter("...), lg.Conjuncts[op.conj].Pred.String()...)
	case obsv.KindAgg:
		b = appendInt(appendInt(b, "Agg(", len(lg.Agg.GroupBy), " group cols, "), "", len(lg.Agg.Specs), " aggs")
	case obsv.KindProject:
		b = appendInt(b, "Project(", len(lg.Project.Exprs), " exprs")
	case obsv.KindSort:
		b = appendInt(b, "Sort(", len(lg.Sort), " keys")
	case obsv.KindLimit:
		b = appendInt(b, "Limit(", lg.Limit, "")
	default:
		return append(b, "Result"...)
	}
	return append(b, ')')
}

// appendInt appends n between pre and post.
func appendInt(b []byte, pre string, n int, post string) []byte {
	return append(strconv.AppendInt(append(b, pre...), int64(n), 10), post...)
}

// appendQualCol appends a global column id as table.column.
func appendQualCol(b []byte, lg *plan.Logical, g int) []byte {
	return append(append(append(b, lg.Tables[lg.TableOf(g)].Name...), '.'), lg.ColName(g)...)
}

// appendQty appends seconds or joules in the unit's µ, m or whole form.
func appendQty(b []byte, v float64, unit string) []byte {
	switch {
	case v <= 0:
		b = append(b, "0 "...)
	case v < 1e-3:
		b = append(strconv.AppendFloat(b, v*1e6, 'f', 1, 64), " µ"...)
	case v < 1:
		b = append(strconv.AppendFloat(b, v*1e3, 'f', 2, 64), " m"...)
	default:
		b = append(strconv.AppendFloat(b, v, 'f', 3, 64), ' ')
	}
	return append(b, unit...)
}

func appendRows(b []byte, r float64) []byte {
	if r < 1 {
		return append(b, '0')
	}
	if r < 1e6 {
		return strconv.AppendFloat(b, r, 'f', 0, 64)
	}
	return strconv.AppendFloat(b, r, 'g', 3, 64)
}

func appendCycles(b []byte, c float64) []byte {
	if c < 1e4 {
		return strconv.AppendFloat(b, c, 'f', 0, 64)
	}
	return strconv.AppendFloat(b, c, 'g', 3, 64)
}
