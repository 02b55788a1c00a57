// Package opt is the cost-and-energy query optimizer: it estimates
// per-operator cardinalities from catalog statistics, costs candidate
// physical plans in simulated seconds AND joules using the engine's own
// cycle constants and CPU power model, and picks the plan a configurable
// objective prefers — minimum latency, minimum joules, or a blend. Every
// estimated cycle comes from the exec.CostModel function the executor
// charges the same event with (cost.go), so "the cost model is the energy
// model" holds on both sides of the planner and an estimate can be wrong
// only about cardinality.
package opt

import (
	"math"
	"slices"
	"sync"

	"ecodb/internal/catalog"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// defaultSel is the selectivity assumed for predicates the statistics
// cannot size (System R's 1/3).
const defaultSel = 1.0 / 3

// minRows floors every cardinality estimate so downstream divisions and
// logarithms stay sane.
const minRows = 1e-3

// est is one optimization's estimation context: the logical plan, the
// environment, each table's statistics, what no shape changes, and the
// scratch the join enumeration and rendering reuse. It is pooled (release),
// so steady-state planning allocates only what it returns.
type est struct {
	lg    *plan.Logical
	env   Env
	stats []*catalog.TableStats

	// conjSel caches each conjunct's selectivity, which is shape-independent,
	// so the DP's inner loop never recomputes it.
	conjSel []float64
	// scans holds each table's scan estimate, at 2t with its conjuncts left
	// above the scan and at 2t+1 with them pushed into it.
	scans    []opEst
	rowBytes float64 // the output row's estimated wire width
	// conj is the buffer the plan's placement rule fills: the conjunct
	// indexes of the one scan, join or filter being priced.
	conj []int

	acc cycles // the accumulator every cost function fills (fresh)

	// The join enumeration's frontiers, one per table subset, found by
	// slots[set]; the subsets with candidates, ascending; a decoded shape.
	fronts []frontier
	slots  map[plan.TableSet]int32
	sets   []plan.TableSet
	order  []int
	builds []bool

	ops []opEst // planCycles' per-operator estimates when collecting
	buf []byte  // EXPLAIN's rendering
}

var estPool = sync.Pool{New: func() any { return new(est) }}

func newEst(lg *plan.Logical, env Env) *est {
	env.Amplify = exec.Amplification(env.Amplify)
	e := estPool.Get().(*est)
	e.lg, e.env = lg, env
	e.stats = e.stats[:0]
	for _, t := range lg.Tables {
		e.stats = append(e.stats, t.Stats())
	}
	e.conjSel = e.conjSel[:0]
	for _, c := range lg.Conjuncts {
		e.conjSel = append(e.conjSel, e.conjunctSel(c))
	}
	e.scans = e.scans[:0]
	for t := range lg.Tables {
		e.scans = append(e.scans, e.scanCost(t, false), e.scanCost(t, true))
	}
	e.rowBytes = 0
	for _, c := range lg.OutputSchema().Columns() {
		if c.Kind == expr.KindString {
			e.rowBytes += 16
		} else {
			e.rowBytes += 8
		}
	}

	n := len(lg.Tables)
	e.fronts, e.sets = e.fronts[:0], e.sets[:0]
	e.order, e.builds = slices.Grow(e.order[:0], n), slices.Grow(e.builds[:0], n)
	if e.slots == nil {
		e.slots = make(map[plan.TableSet]int32)
	}
	clear(e.slots)
	return e
}

// release returns the estimate, if any, to the pool; the caller keeps
// nothing of it.
func (e *est) release() {
	if e != nil {
		e.lg = nil
		estPool.Put(e)
	}
}

// colStats returns the statistics of a global column id.
func (e *est) colStats(g int) *catalog.ColStats {
	t := e.lg.TableOf(g)
	return e.stats[t].Col(g - e.lg.ColOffset(t))
}

// ndv returns a column's distinct count, floored at 1.
func (e *est) ndv(g int) float64 {
	return max(float64(e.colStats(g).NDV), 1)
}

// rangeFraction estimates the fraction of a numeric column's [Lo, Hi]
// domain below numeric point v. A string or all-NULL column's numeric
// bounds are both zero, and infinite bounds — a NaN-widened zone's
// [-Inf, +Inf] among them — make the width infinite, so neither gives an
// estimate and fractions stay finite.
func rangeFraction(cs *catalog.ColStats, v expr.Value) (float64, bool) {
	width := cs.Hi - cs.Lo
	if !(width > 0) || math.IsInf(width, 1) || v.IsNull() || v.Kind == expr.KindString {
		return 0, false
	}
	return clamp01((v.AsFloat() - cs.Lo) / width), true
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// sel estimates the selectivity of a bound predicate whose column
// references are global ids. It mirrors the classic System R rules,
// sized by the zone-map-harvested statistics.
func (e *est) sel(p expr.Expr) float64 {
	switch n := p.(type) {
	case expr.Cmp:
		return e.selCmp(n)
	case expr.Between:
		if col, ok := n.E.(expr.Col); ok {
			cs := e.colStats(col.Idx)
			lo, okL := rangeFraction(cs, n.Lo)
			hi, okH := rangeFraction(cs, n.Hi)
			if okL && okH {
				return clamp01(hi - lo)
			}
		}
		return defaultSel
	case expr.And:
		s := 1.0
		for _, t := range n.Terms {
			s *= e.sel(t)
		}
		return s
	case expr.Or:
		miss := 1.0
		for _, t := range n.Terms {
			miss *= 1 - e.sel(t)
		}
		return 1 - miss
	case expr.Not:
		return clamp01(1 - e.sel(n.E))
	case *expr.InHash:
		if col, ok := n.E.(expr.Col); ok {
			return clamp01(float64(len(n.Set)) / e.ndv(col.Idx))
		}
		return defaultSel
	default:
		return defaultSel
	}
}

func (e *est) selCmp(n expr.Cmp) float64 {
	col, colOK := n.L.(expr.Col)
	cst, cstOK := n.R.(expr.Const)
	flipped := false
	if !colOK || !cstOK {
		// Try const <op> col.
		if c2, ok := n.R.(expr.Col); ok {
			if k2, ok := n.L.(expr.Const); ok {
				col, cst, colOK, cstOK, flipped = c2, k2, true, true, true
			}
		}
	}
	if !colOK || !cstOK {
		// Not col ⋈ const: col = col (same table, or a join edge costed
		// elsewhere) or any other shape.
		return defaultSel
	}
	cs := e.colStats(col.Idx)
	op := n.Op
	if flipped {
		op = op.Flip()
	}
	switch op {
	case expr.EQ:
		return clamp01(1 / e.ndv(col.Idx))
	case expr.NE:
		return clamp01(1 - 1/e.ndv(col.Idx))
	case expr.LT, expr.LE:
		if f, ok := rangeFraction(cs, cst.V); ok {
			return f
		}
		return defaultSel
	case expr.GT, expr.GE:
		if f, ok := rangeFraction(cs, cst.V); ok {
			return clamp01(1 - f)
		}
		return defaultSel
	default:
		return defaultSel
	}
}

// conjunctSel estimates one logical conjunct's selectivity: equi-join
// edges use the containment rule 1/max(ndv), everything else the
// predicate rules above.
func (e *est) conjunctSel(c plan.Conjunct) float64 {
	if c.EquiJoin {
		return 1 / max(e.ndv(c.LeftCol), e.ndv(c.RightCol), 1)
	}
	return e.sel(c.Pred)
}

// groupCount estimates an aggregation's output groups: the product of the
// grouping columns' distinct counts, capped by the input cardinality.
func (e *est) groupCount(inRows float64) float64 {
	if e.lg.Agg == nil {
		return inRows
	}
	if len(e.lg.Agg.GroupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range e.lg.Agg.GroupBy {
		groups *= e.ndv(g)
	}
	return max(min(groups, inRows), 1)
}
