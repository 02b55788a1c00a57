package oracle

import (
	"fmt"
	"sort"

	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Counts are the cardinalities the operators of an evaluated plan saw,
// summed over the operators of each kind: what the engine's cost model
// prices a plan by.
type Counts struct {
	// ScanRows and ScanBytes are the rows and page bytes the scans read,
	// every page whole.
	ScanRows, ScanBytes int64
	// Build and Probe are the rows the hash joins' two sides delivered;
	// Matches the pairs whose keys matched, residual or not.
	Build, Probe, Matches int64
	// Folded is the rows the aggregations folded, Groups the rows they
	// emitted.
	Folded, Groups int64
	// Sorted is the rows the sorts consumed.
	Sorted int64
	// ExprCycles is what evaluating every predicate, projection and
	// aggregate argument row by row metered.
	ExprCycles float64
}

// Eval evaluates n one row at a time and returns its rows, with the
// counts its operators saw.
//
// A scan reads its table's pages in order and keeps the rows its filter
// holds for. A hash join pairs, in probe order and for each probe row in
// build order, the rows whose keys JoinMatches, as the build row followed
// by the probe row, and keeps those its residual holds for. An
// aggregation groups its input by GroupKey, keeps each group's first-seen
// values, and emits its groups in key order: COUNT counts rows or non-NULL
// arguments, SUM and AVG add arguments as floats in input order (NULL over
// none), MIN and MAX keep the first extreme under Compare. With no
// group-by columns it emits one row even over no input. A sort is stable,
// and a limit keeps a prefix.
func Eval(n plan.Node) ([]expr.Row, Counts) {
	var e evaluator
	rows := e.eval(n)
	e.counts.ExprCycles = e.meter.Cycles
	return rows, e.counts
}

type evaluator struct {
	counts Counts
	meter  expr.Cost
}

func (e *evaluator) holds(pred expr.Expr, row expr.Row) bool {
	return pred == nil || pred.Eval(row, &e.meter).Truthy()
}

func (e *evaluator) eval(n plan.Node) []expr.Row {
	switch n := n.(type) {
	case *plan.Scan:
		var out []expr.Row
		for i := 0; i < n.Table.Heap.NumPages(); i++ {
			pg := n.Table.Heap.Page(i)
			e.counts.ScanRows += int64(pg.NumRows())
			e.counts.ScanBytes += pg.Bytes
			for _, row := range pg.Rows() {
				if e.holds(n.Filter, row) {
					out = append(out, row)
				}
			}
		}
		return out
	case *plan.Filter:
		var out []expr.Row
		for _, row := range e.eval(n.Input) {
			if e.holds(n.Pred, row) {
				out = append(out, row)
			}
		}
		return out
	case *plan.Project:
		var out []expr.Row
		for _, row := range e.eval(n.Input) {
			proj := make(expr.Row, len(n.Exprs))
			for i, x := range n.Exprs {
				proj[i] = x.Eval(row, &e.meter)
			}
			out = append(out, proj)
		}
		return out
	case *plan.HashJoin:
		build, probe := e.eval(n.Build), e.eval(n.Probe)
		e.counts.Build += int64(len(build))
		e.counts.Probe += int64(len(probe))
		var out []expr.Row
		for _, p := range probe {
			for _, b := range build {
				if !JoinMatches(b[n.BuildKey], p[n.ProbeKey]) {
					continue
				}
				e.counts.Matches++
				if row := append(b.Clone(), p...); e.holds(n.Residual, row) {
					out = append(out, row)
				}
			}
		}
		return out
	case *plan.Agg:
		return e.agg(n)
	case *plan.Sort:
		rows := e.eval(n.Input)
		e.counts.Sorted += int64(len(rows))
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range n.Keys {
				if c := expr.Compare(rows[i][k.Col], rows[j][k.Col]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
		return rows
	case *plan.Limit:
		rows := e.eval(n.Input)
		return rows[:min(n.N, len(rows))]
	}
	panic(fmt.Sprintf("oracle: cannot evaluate %T", n))
}

func (e *evaluator) agg(n *plan.Agg) []expr.Row {
	type group struct {
		vals   expr.Row
		counts []int64
		sums   []float64
		ext    []expr.Value
	}
	newGroup := func(vals expr.Row) *group {
		return &group{vals: vals, counts: make([]int64, len(n.Aggs)),
			sums: make([]float64, len(n.Aggs)), ext: make([]expr.Value, len(n.Aggs))}
	}
	groups := map[string]*group{}
	in := e.eval(n.Input)
	e.counts.Folded += int64(len(in))
	for _, row := range in {
		vals := make(expr.Row, len(n.GroupBy))
		for i, g := range n.GroupBy {
			vals[i] = row[g]
		}
		key := GroupKey(vals...)
		st := groups[key]
		if st == nil {
			st = newGroup(vals)
			groups[key] = st
		}
		for i, spec := range n.Aggs {
			if spec.Arg == nil {
				st.counts[i]++
				continue
			}
			v := spec.Arg.Eval(row, &e.meter)
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			st.sums[i] += v.AsFloat()
			switch {
			case st.ext[i].IsNull():
				st.ext[i] = v
			case spec.Func == plan.Min && expr.Compare(v, st.ext[i]) < 0,
				spec.Func == plan.Max && expr.Compare(v, st.ext[i]) > 0:
				st.ext[i] = v
			}
		}
	}
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		groups[GroupKey()] = newGroup(nil)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.counts.Groups += int64(len(keys))
	out := make([]expr.Row, 0, len(keys))
	for _, k := range keys {
		st := groups[k]
		row := st.vals.Clone()
		for i, spec := range n.Aggs {
			switch {
			case spec.Func == plan.Count:
				row = append(row, expr.Int(st.counts[i]))
			case spec.Func == plan.Min || spec.Func == plan.Max:
				row = append(row, st.ext[i])
			case st.counts[i] == 0:
				row = append(row, expr.Null())
			case spec.Func == plan.Sum:
				row = append(row, expr.Float(st.sums[i]))
			default:
				row = append(row, expr.Float(st.sums[i]/float64(st.counts[i])))
			}
		}
		out = append(out, row)
	}
	return out
}
