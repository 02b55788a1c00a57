package opt

import (
	"fmt"
	"slices"
	"sort"

	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// OpCycles is one operator's estimated cycles by work kind, before
// amplification — what planCycles collects and OperatorEstimates converts
// to seconds and joules.
type OpCycles struct {
	Kind   obsv.Kind
	Cycles [3]float64
}

// OperatorCycles exposes planCycles' per-operator cycle estimates to the
// package's external tests, in OperatorEstimates' order.
func OperatorCycles(lg *plan.Logical, env Env, ch *Choice) []OpCycles {
	e := newEst(lg, env)
	defer e.release()
	ops, _ := e.choiceOps(ch)
	out := make([]OpCycles, len(ops))
	for i, op := range ops {
		out[i] = OpCycles{Kind: op.kind, Cycles: op.cyc.k}
	}
	return out
}

// Shapes runs the join enumeration over lg with table pinned joining last
// (-1: none) and returns every shape it yields, in order, as "order
// builds".
func Shapes(lg *plan.Logical, env Env, pinned int) []string {
	e := newEst(lg, env)
	defer e.release()
	var out []string
	e.enumerateShapes(pinned, func(order []int, builds []bool) {
		out = append(out, fmt.Sprint(order, builds))
	})
	return out
}

// SweepShapes is the reference the join enumeration is held to: the same
// dynamic program run as a size-by-size sweep, its frontiers in a map, the
// subsets of each size visited in ascending order, and every candidate
// carrying its own join order and build sides. A full frontier keeps its
// lowest total-cycle candidates, ties in arrival order (sort.SliceStable).
// It returns the shapes Shapes would, in the same form.
func SweepShapes(lg *plan.Logical, env Env, pinned int) []string {
	type sweepCand struct {
		order  []int
		builds []bool
		rows   float64
		c      cycles
	}
	insert := func(frontier []sweepCand, nc sweepCand) []sweepCand {
		for _, f := range frontier {
			if nc.c.dominatedBy(f.c) {
				return frontier
			}
		}
		var keep []sweepCand
		for _, f := range frontier {
			if !f.c.dominatedBy(nc.c) {
				keep = append(keep, f)
			}
		}
		keep = append(keep, nc)
		if len(keep) > maxCandsPerSet {
			sort.SliceStable(keep, func(i, j int) bool { return keep[i].c.total() < keep[j].c.total() })
			keep = keep[:maxCandsPerSet]
		}
		return keep
	}
	e := newEst(lg, env)
	defer e.release()
	n := len(lg.Tables)
	dp := make(map[plan.TableSet][]sweepCand)
	grow := n
	for t := 0; t < n; t++ {
		if t == pinned {
			grow--
			continue
		}
		leaf := e.scans[2*t+1]
		dp[plan.TableSet(0).With(t)] = []sweepCand{{order: []int{t}, rows: leaf.rows, c: leaf.cyc}}
	}
	extend := func(cd sweepCand, set plan.TableSet, t int, build bool) (sweepCand, bool) {
		key, residual, ok := lg.JoinStep(nil, set, t, true)
		if !ok {
			return sweepCand{}, false
		}
		leaf := e.scans[2*t+1]
		j := e.join(key, residual, cd.rows, leaf.rows, build)
		nc := sweepCand{order: append(slices.Clone(cd.order), t), builds: append(slices.Clone(cd.builds), build), rows: j.rows, c: cd.c}
		nc.c.addAll(leaf.cyc)
		nc.c.addAll(j.c)
		return nc, true
	}
	for size := 1; size < grow; size++ {
		var subsets []plan.TableSet
		for s := range dp {
			if s.Count() == size {
				subsets = append(subsets, s)
			}
		}
		slices.Sort(subsets)
		for _, s := range subsets {
			for t := 0; t < n; t++ {
				if s.Has(t) || t == pinned {
					continue
				}
				for _, cd := range dp[s] {
					for _, build := range []bool{true, false} {
						if nc, ok := extend(cd, s, t, build); ok {
							dp[s.With(t)] = insert(dp[s.With(t)], nc)
						}
					}
				}
			}
		}
	}
	full := plan.TableSet(0)
	for t := 0; t < n; t++ {
		if t != pinned {
			full = full.With(t)
		}
	}
	var out []string
	for _, cd := range dp[full] {
		if pinned >= 0 {
			nc, ok := extend(cd, full, pinned, true)
			if !ok {
				continue
			}
			cd = nc
		}
		out = append(out, fmt.Sprint(cd.order, cd.builds))
	}
	return out
}
