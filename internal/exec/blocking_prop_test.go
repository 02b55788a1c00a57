package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/oracle"
	"ecodb/internal/plan"
)

// Differential property test for the blocking operators: random Sort,
// Limit(Sort), HashJoin and Agg plans — and projections, filters and
// aggregations that read a strict subset of a join's columns, so the join
// copies only its live ones — over random small tables (oracle.RandTable)
// run through the compiled operators at workers 0, 1, 2 and 4 and through
// the oracle's row-at-a-time evaluation, which knows nothing of vectors,
// tables of indices, heaps or morsels, must agree on the tuples, their
// order, and the cycles charged by work kind, exactly.
//
// What the generator reaches for: NULL keys and all-NULL columns, ties
// (stability), DESC, up to three sort keys, dictionary and dense strings,
// ints above 2⁵³ (which tie under Compare), -0.0 and NaN, empty inputs,
// LIMIT 0 and LIMIT beyond the input, tables sized from the morsel run
// length with pages of one to a few rows, so most span several morsel runs
// and run pooled at workers 2 and 4 (the merge sees up to fifteen runs of
// heavily duplicated keys), and joins and aggregations over inputs that arrive with
// a selection vector. NaN stays out of sort keys and MIN/MAX arguments:
// Compare ties NaN with everything, so an order over it is whatever the
// algorithm makes of an inconsistent comparison.

// price charges the counts of an evaluated plan as the cost model says each
// operator charges per row and per page. Every charge but a sort's is a
// whole number of cycles (page-stream charges are a multiple of 2⁻¹⁰), so
// their sum is exact in any order; the one sort a plan may carry sits at
// its top (below at most a Limit), so its n·log₂n charge is added last, as
// the executor adds it.
func price(m CostModel, n oracle.Counts) [3]float64 {
	var c [3]float64
	c[cpu.Stream] = m.PageStreamCyclesPerKB * float64(n.ScanBytes) / 1024
	c[cpu.Compute] = m.ScanTupleCycles*float64(n.ScanRows) + n.ExprCycles +
		m.BuildCycles*float64(n.Build) + m.ProbeCycles*float64(n.Probe) + m.MatchCycles*float64(n.Matches) +
		m.AggCycles*float64(n.Folded) + m.AggCycles*float64(n.Groups)
	c[cpu.MemStall] = m.ScanTupleStallCycles*float64(n.ScanRows) +
		m.BuildStallCycles*float64(n.Build) + m.ProbeStallCycles*float64(n.Probe) + m.AggStallCycles*float64(n.Folded)
	if s := float64(n.Sorted); s > 1 {
		c[cpu.Compute] += m.SortCmpCycles * s * math.Log2(s)
		c[cpu.MemStall] += 0.25 * m.SortCmpCycles * s * math.Log2(s)
	}
	return c
}

// genPred returns a predicate over columns cols (at positions offset by
// base): a comparison with a constant, or an AND/OR of two.
func genPred(rng *rand.Rand, cols []oracle.Col, depth int) expr.Expr {
	if depth == 0 && rng.Intn(3) == 0 {
		terms := []expr.Expr{genPred(rng, cols, 1), genPred(rng, cols, 1)}
		if rng.Intn(2) == 0 {
			return expr.And{Terms: terms}
		}
		return expr.Or{Terms: terms}
	}
	c := rng.Intn(len(cols))
	return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: expr.Col{Idx: c}, R: expr.Const{V: oracle.RandConst(rng, cols[c].Kind)}}
}

// genInput returns a scan of pt, half the time filtered, sometimes with a
// further Filter above it — a morsel fragment at workers > 1.
func genInput(rng *rand.Rand, pt oracle.Table) plan.Node {
	var filter expr.Expr
	if rng.Intn(2) == 0 {
		filter = genPred(rng, pt.Cols, 0)
	}
	var n plan.Node = plan.NewScan(pt.Table, filter)
	if rng.Intn(4) == 0 {
		n = plan.NewFilter(n, genPred(rng, pt.Cols, 0))
	}
	return n
}

// genSort puts a Sort, and half the time a Limit, on top of n; sortable
// lists the output columns free of NaN.
func genSort(rng *rand.Rand, n plan.Node, sortable []int, rows int) plan.Node {
	if len(sortable) == 0 {
		return n
	}
	keys := make([]plan.SortKey, 1+rng.Intn(min(3, len(sortable))))
	for i, p := range rng.Perm(len(sortable))[:len(keys)] {
		keys[i] = plan.SortKey{Col: sortable[p], Desc: rng.Intn(2) == 0}
	}
	n = plan.NewSort(n, keys...)
	if rng.Intn(2) == 0 {
		n = plan.NewLimit(n, []int{0, 1, 2, 5, 17, rows + 10}[rng.Intn(6)])
	}
	return n
}

func sortableCols(cols []oracle.Col) []int {
	var out []int
	for c, col := range cols {
		if !col.HasNaN {
			out = append(out, c)
		}
	}
	return out
}

// genJoin joins two generated tables, with a residual half the time.
func genJoin(rng *rand.Rand, build, probe oracle.Table) (plan.Node, []oracle.Col) {
	return joinOf(rng, genInput(rng, build), build.Cols, genInput(rng, probe), probe.Cols, rng.Intn(2) == 0)
}

// joinOf joins build and probe, whose columns bc and pc describe, on a pair
// of columns — of one kind more often than not; across kinds a join matches
// nothing — and, when residual is set, checks a residual comparing a build
// column with a probe column.
func joinOf(rng *rand.Rand, build plan.Node, bc []oracle.Col, probe plan.Node, pc []oracle.Col, residual bool) (plan.Node, []oracle.Col) {
	bk, pk := rng.Intn(len(bc)), rng.Intn(len(pc))
	for try := 0; try < 8 && bc[bk].Kind != pc[pk].Kind; try++ {
		bk, pk = rng.Intn(len(bc)), rng.Intn(len(pc))
	}
	cols := append(append([]oracle.Col{}, bc...), pc...)
	var resid expr.Expr
	if residual {
		b, p := rng.Intn(len(bc)), rng.Intn(len(pc))
		if (bc[b].Kind == expr.KindString) == (pc[p].Kind == expr.KindString) {
			resid = expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: expr.Col{Idx: b}, R: expr.Col{Idx: len(bc) + p}}
		} else {
			resid = genPred(rng, cols, 0)
		}
	}
	return plan.NewHashJoin(build, probe, bk, pk, resid), cols
}

// genProject projects one or two of n's columns, each a plain reference
// or, over a numeric column, arithmetic: a join beneath it copies only what
// the projection reads.
func genProject(rng *rand.Rand, n plan.Node, cols []oracle.Col) plan.Node {
	var exprs []expr.Expr
	var names []string
	var kinds []expr.Kind
	for i, want := 0, 1+rng.Intn(2); i < want; i++ {
		c := rng.Intn(len(cols))
		var e expr.Expr = expr.Col{Idx: c}
		kind := cols[c].Kind
		if kind != expr.KindString && rng.Intn(3) == 0 {
			e, kind = expr.Arith{Op: expr.Mul, L: e, R: expr.Const{V: expr.Float(0.5)}}, expr.KindFloat
		}
		exprs, names, kinds = append(exprs, e), append(names, fmt.Sprintf("p%d", i)), append(kinds, kind)
	}
	return plan.NewProject(n, exprs, names, kinds)
}

// genAgg aggregates n: zero to two group-by columns, one to four
// aggregates — SUM and AVG over numeric columns or arithmetic on them,
// MIN and MAX over any NaN-free column, COUNT(*) and COUNT(column).
func genAgg(rng *rand.Rand, n plan.Node, cols []oracle.Col) (plan.Node, []oracle.Col) {
	groupBy := rng.Perm(len(cols))[:rng.Intn(3)]
	var out []oracle.Col
	for _, g := range groupBy {
		out = append(out, cols[g])
	}
	var numeric []int
	for c, col := range cols {
		if col.Kind != expr.KindString {
			numeric = append(numeric, c)
		}
	}
	var aggs []plan.AggSpec
	for i, want := 0, 1+rng.Intn(4); i < want; i++ {
		spec := plan.AggSpec{Name: fmt.Sprintf("agg%d", i), Func: plan.AggFunc(rng.Intn(5))}
		switch spec.Func {
		case plan.Sum, plan.Avg:
			if len(numeric) == 0 {
				spec.Func = plan.Count
				break
			}
			spec.Arg = expr.Col{Idx: numeric[rng.Intn(len(numeric))]}
			if rng.Intn(3) == 0 {
				spec.Arg = expr.Arith{Op: expr.ArithOp(rng.Intn(4)), L: spec.Arg,
					R: expr.Arith{Op: expr.Add, L: expr.Col{Idx: numeric[rng.Intn(len(numeric))]}, R: expr.Const{V: expr.Float(0.5)}}}
			}
		case plan.Min, plan.Max:
			sortable := sortableCols(cols)
			if len(sortable) == 0 {
				spec.Func = plan.Count
				break
			}
			spec.Arg = expr.Col{Idx: sortable[rng.Intn(len(sortable))]}
		default:
			if rng.Intn(2) == 0 {
				spec.Arg = expr.Col{Idx: rng.Intn(len(cols))}
			}
		}
		aggs = append(aggs, spec)
		// Aggregate outputs may carry NaN (a SUM over one): never sort keys.
		out = append(out, oracle.Col{Kind: expr.KindFloat, HasNaN: true})
	}
	return plan.NewAgg(n, groupBy, aggs), out
}

func genPropPlan(rng *rand.Rand) plan.Node {
	a, b := oracle.RandTable(rng, "a"), oracle.RandTable(rng, "b")
	rows := int(a.Heap.NumRows())
	switch rng.Intn(9) {
	case 0, 1: // Sort and Limit(Sort) over a fragment
		return genSort(rng, genInput(rng, a), sortableCols(a.Cols), rows)
	case 2: // a join, bare or under a sort with the join as its input operator
		j, cols := genJoin(rng, a, b)
		if rng.Intn(3) == 0 {
			return genSort(rng, j, sortableCols(cols), rows)
		}
		return j
	case 3: // an aggregation over a fragment, bare or sorted
		g, cols := genAgg(rng, genInput(rng, a), a.Cols)
		if rng.Intn(3) == 0 {
			return genSort(rng, g, sortableCols(cols), rows)
		}
		return g
	case 4: // an aggregation with a join as its input operator
		j, cols := genJoin(rng, a, b)
		g, _ := genAgg(rng, j, cols)
		return g
	case 5: // a join probed by a join: selections flow into build and probe
		j, cols := genJoin(rng, a, b)
		c := oracle.RandTable(rng, "c")
		return plan.NewHashJoin(genInput(rng, c), j, rng.Intn(len(c.Cols)), rng.Intn(len(cols)), nil)
	// The rest read a strict subset of a join's columns, so the joins copy
	// and gather only the live ones.
	case 6: // a projection over a join, half the time filtered first
		j, cols := genJoin(rng, a, b)
		if rng.Intn(2) == 0 {
			j = plan.NewFilter(j, genPred(rng, cols, 0))
		}
		return genProject(rng, j, cols)
	case 7: // an aggregation over a join that a join probes or builds on
		j, cols := genJoin(rng, a, b)
		c := oracle.RandTable(rng, "c")
		var outer plan.Node
		if rng.Intn(2) == 0 {
			outer, cols = joinOf(rng, genInput(rng, c), c.Cols, j, cols, rng.Intn(2) == 0)
		} else {
			outer, cols = joinOf(rng, j, cols, genInput(rng, c), c.Cols, rng.Intn(2) == 0)
		}
		g, _ := genAgg(rng, outer, cols)
		return g
	default: // a filter over a join with a residual, projected or aggregated
		j, cols := joinOf(rng, genInput(rng, a), a.Cols, genInput(rng, b), b.Cols, true)
		f := plan.NewFilter(j, genPred(rng, cols, 0))
		if rng.Intn(2) == 0 {
			return genProject(rng, f, cols)
		}
		g, _ := genAgg(rng, f, cols)
		return g
	}
}

func TestBlockingOperatorsMatchRowReference(t *testing.T) {
	const cases = 1200
	rng := rand.New(rand.NewSource(20260928))
	for c := 0; c < cases; c++ {
		p := genPropPlan(rng)
		want, counts := oracle.Eval(p)
		for _, workers := range []int{0, 1, 2, 4} {
			ctx, _ := testCtx()
			sorted := obsv.SortRows.Load()
			var got []expr.Row
			if err := Drain(ctx, CompileParallel(p, workers), func(b *expr.Batch) error {
				got = b.AppendRowsTo(got)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			ctx.Flush()
			label := fmt.Sprintf("case %d workers %d:\n%s", c, workers, plan.Format(p))
			if len(got) != len(want) {
				t.Fatalf("%s%d rows, want %d", label, len(got), len(want))
			}
			for i := range got {
				for col := range got[i] {
					if !oracle.SameValue(got[i][col], want[i][col]) {
						t.Fatalf("%srow %d col %d: %v, want %v", label, i, col, got[i], want[i])
					}
				}
			}
			if cycles, want := ctx.CPU.Stats().CyclesByKind, price(ctx.Cost, counts); cycles != want {
				t.Fatalf("%scharged %v cycles, want %v", label, cycles, want)
			}
			if moved := obsv.SortRows.Load() - sorted; moved != counts.Sorted {
				t.Fatalf("%sexec_sort_rows_total moved by %d, want the %d rows sorts consumed", label, moved, counts.Sorted)
			}
		}
	}
}

// The group table partitions rows exactly as the oracle's group keys do: one NULL group, -0 with +0, a NaN only with a NaN of
// the same bits, and a word one group whether its batch carries it
// dictionary-coded or plain. Random one- to three-column batches, under
// selections, fold into one table and, cut into runs, into partials merged
// in run order through one recycled partial; both must number the groups
// in first-seen order, keep each group's first-seen values bit for bit,
// count its rows, and emit in ascending key order. Most cases hold more
// than 16 groups, by which a table of 8 slots at most half full has grown
// three times. The pools hold values whose hashes meet others' on purpose:
// the int and the float whose element hashes equal NULL's, and two NaNs.
func TestAggTableGroupsByEncodedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const nullHash = 0x5bd1e995 // expr's element hash of NULL
	ints := []int64{0, -1, 1 << 40, nullHash}
	for i := int64(1); i <= 30; i++ {
		ints = append(ints, i)
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000000),
		1.5, -2.25, math.Float64frombits(nullHash)}
	for i := 1; i <= 20; i++ {
		floats = append(floats, float64(i))
	}
	words := []string{"", "\x00x", "x\x00"}
	for i := 0; i < 25; i++ {
		words = append(words, fmt.Sprintf("w%d", i))
	}
	dict := expr.NewDict(words)
	draw := func(kind expr.Kind) expr.Value {
		switch kind {
		case expr.KindFloat:
			return expr.Float(floats[rng.Intn(len(floats))])
		case expr.KindString:
			return expr.String(words[rng.Intn(len(words))])
		case expr.KindBool:
			return expr.Bool(rng.Intn(2) == 0)
		case expr.KindDate:
			return expr.Date(ints[rng.Intn(len(ints))])
		}
		return expr.Int(ints[rng.Intn(len(ints))])
	}
	aggs := []plan.AggSpec{{Func: plan.Count, Name: "n"}}
	grown := 0
	for c := 0; c < 300; c++ {
		width := 1 + rng.Intn(3)
		kinds := make([]expr.Kind, width)
		groupBy := make([]int, width)
		for k := range kinds {
			kinds[k] = []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindString, expr.KindDate, expr.KindBool}[rng.Intn(5)]
			groupBy[k] = width - 1 - k // group-by columns out of batch order
		}
		var batches []*expr.Batch
		for range 3 + rng.Intn(4) {
			b := expr.NewBatch(width)
			n := rng.Intn(120)
			allNull := rng.Intn(10) == 0
			for range n {
				row := make(expr.Row, width)
				for k := range row {
					if allNull && k == 0 || rng.Intn(10) == 0 {
						row[k] = expr.Null()
					} else {
						row[k] = draw(kinds[k])
					}
				}
				b.AppendRow(row)
			}
			for k := range b.Cols {
				if kinds[k] == expr.KindString && rng.Intn(2) == 0 {
					b.Cols[k].EncodeDict(dict)
				}
			}
			if rng.Intn(2) == 0 {
				b.Sel = []int32{}
				for i := 0; i < n; i++ {
					if rng.Intn(3) > 0 {
						b.Sel = append(b.Sel, int32(i))
					}
				}
			}
			batches = append(batches, b)
		}

		// The reference: groups by encoded key, in first-seen order.
		var order []string
		first := map[string]expr.Row{}
		count := map[string]int64{}
		for _, b := range batches {
			for li := 0; li < b.Len(); li++ {
				vals := make(expr.Row, width)
				for k, col := range groupBy {
					vals[k] = b.Cols[col].Get(b.RowIdx(li))
				}
				key := oracle.GroupKey(vals...)
				if _, ok := first[key]; !ok {
					order = append(order, key)
					first[key] = vals
				}
				count[key]++
			}
		}
		if len(order) > 16 {
			grown++
		}

		var meter expr.Cost
		serial := newAggTable(groupBy, aggs, false)
		merged, part := newAggTable(groupBy, aggs, false), newAggTable(groupBy, aggs, true)
		for i := 0; i < len(batches); {
			end := min(len(batches), i+1+rng.Intn(2))
			for ; i < end; i++ {
				serial.fold(batches[i], &meter)
				part.fold(batches[i], &meter)
			}
			merged.merge(part)
			part.reset()
		}
		for name, tb := range map[string]*aggTable{"serial": serial, "merged": merged} {
			if tb.vals.N != len(order) {
				t.Fatalf("case %d %s: %d groups, want %d", c, name, tb.vals.N, len(order))
			}
			for g, key := range order {
				for k := range groupBy {
					if got, want := tb.vals.Cols[k].Get(g), first[key][k]; !oracle.SameValue(got, want) {
						t.Fatalf("case %d %s group %d column %d: %v, want the first-seen %v", c, name, g, k, got, want)
					}
				}
				if got := tb.count(0, int32(g)); got != count[key] {
					t.Fatalf("case %d %s group %d: %d rows, want %d", c, name, g, got, count[key])
				}
			}
			out := expr.NewBatch(width + 1)
			tb.emit(out)
			prev := ""
			for r := 0; r < out.N; r++ {
				vals := make(expr.Row, width)
				for k := range vals {
					vals[k] = out.Cols[k].Get(r)
				}
				key := oracle.GroupKey(vals...)
				if r > 0 && key <= prev {
					t.Fatalf("case %d %s: emitted row %d is not after row %d in key order", c, name, r, r-1)
				}
				if n := out.Cols[width].Get(r).I; n != count[key] {
					t.Fatalf("case %d %s: emitted row %d counts %d, want %d", c, name, r, n, count[key])
				}
				prev = key
			}
		}
	}
	if grown < 100 {
		t.Fatalf("only %d cases held more than 16 groups", grown)
	}
}
