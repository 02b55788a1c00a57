package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// Differential property test for the blocking operators: random Sort,
// Limit(Sort), HashJoin and Agg plans — and projections, filters and
// aggregations that read a strict subset of a join's columns, so the join
// copies only its live ones — over random small tables run through
// the compiled operators at workers 1, 2 and 4 and through refExec below —
// a boxed, row-at-a-time evaluator that knows nothing of vectors, tables of
// indices, heaps or morsels — and must agree on the tuples, their order,
// and the cycles charged by work kind, exactly.
//
// What the generator reaches for: NULL keys and all-NULL columns, ties
// (stability), DESC, up to three sort keys, dictionary and dense strings,
// ints above 2⁵³ (which tie under Compare), -0.0 and NaN, empty inputs,
// LIMIT 0 and LIMIT beyond the input, pages of one to a few rows so a table
// spans many morsel runs (the merge sees one to a dozen runs of heavily
// duplicated keys), and joins and aggregations over inputs that arrive with
// a selection vector. NaN stays out of sort keys and MIN/MAX arguments:
// Compare ties NaN with everything, so an order over it is whatever the
// algorithm makes of an inconsistent comparison.

// refExec evaluates a plan row at a time, charging what the cost model
// says each operator charges per row. Every charge but a sort's is a whole
// number of cycles (page-stream charges are a multiple of 2⁻¹⁰), so their
// sum is exact in any order; the one sort a plan may carry sits at its top
// (below at most a Limit), so its n·log₂n charge is the last addition on
// both sides.
type refExec struct {
	cost     CostModel
	cycles   [3]float64
	sortRows int // rows the plan's sort consumed; -1 without one
}

func (r *refExec) eval(n plan.Node) []expr.Row {
	var meter expr.Cost
	defer func() { r.cycles[cpu.Compute] += meter.Drain() }()
	switch n := n.(type) {
	case *plan.Scan:
		var out []expr.Row
		for i := 0; i < n.Table.Heap.NumPages(); i++ {
			pg := n.Table.Heap.Page(i)
			rows := float64(pg.NumRows())
			r.cycles[cpu.Stream] += r.cost.PageStreamCyclesPerKB * float64(pg.Bytes) / 1024
			r.cycles[cpu.Compute] += r.cost.ScanTupleCycles * rows
			r.cycles[cpu.MemStall] += r.cost.ScanTupleStallCycles * rows
			for _, row := range pg.Rows() {
				if n.Filter == nil || n.Filter.Eval(row, &meter).Truthy() {
					out = append(out, row)
				}
			}
		}
		return out
	case *plan.Filter:
		var out []expr.Row
		for _, row := range r.eval(n.Input) {
			if n.Pred.Eval(row, &meter).Truthy() {
				out = append(out, row)
			}
		}
		return out
	case *plan.Project:
		var out []expr.Row
		for _, row := range r.eval(n.Input) {
			proj := make(expr.Row, len(n.Exprs))
			for i, e := range n.Exprs {
				proj[i] = e.Eval(row, &meter)
			}
			out = append(out, proj)
		}
		return out
	case *plan.HashJoin:
		build := r.eval(n.Build)
		probe := r.eval(n.Probe)
		r.cycles[cpu.Compute] += r.cost.BuildCycles*float64(len(build)) + r.cost.ProbeCycles*float64(len(probe))
		r.cycles[cpu.MemStall] += r.cost.BuildStallCycles*float64(len(build)) + r.cost.ProbeStallCycles*float64(len(probe))
		var out []expr.Row
		for _, p := range probe {
			for _, b := range build {
				// Value equality: the kinds match, NULL and NaN equal
				// nothing, -0 equals +0.
				if k := b[n.BuildKey]; k.IsNull() || k != p[n.ProbeKey] {
					continue
				}
				r.cycles[cpu.Compute] += r.cost.MatchCycles
				row := append(b.Clone(), p...)
				if n.Residual == nil || n.Residual.Eval(row, &meter).Truthy() {
					out = append(out, row)
				}
			}
		}
		return out
	case *plan.Agg:
		type group struct {
			vals   expr.Row
			counts []int64
			sums   []float64
			ext    []expr.Value
		}
		groups := map[string]*group{}
		in := r.eval(n.Input)
		r.cycles[cpu.Compute] += r.cost.AggCycles * float64(len(in))
		r.cycles[cpu.MemStall] += r.cost.AggStallCycles * float64(len(in))
		for _, row := range in {
			var vals expr.Row
			for _, g := range n.GroupBy {
				vals = append(vals, row[g])
			}
			key := groupKeyOf(vals...)
			st := groups[key]
			if st == nil {
				st = &group{counts: make([]int64, len(n.Aggs)), sums: make([]float64, len(n.Aggs)), ext: make([]expr.Value, len(n.Aggs))}
				st.vals = vals
				groups[key] = st
			}
			for i, spec := range n.Aggs {
				if spec.Arg == nil {
					st.counts[i]++
					continue
				}
				v := spec.Arg.Eval(row, &meter)
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
			groups[""] = &group{counts: make([]int64, len(n.Aggs)), ext: make([]expr.Value, len(n.Aggs))}
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.cycles[cpu.Compute] += r.cost.AggCycles * float64(len(keys))
		var out []expr.Row
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
	case *plan.Sort:
		rows := r.eval(n.Input)
		r.sortRows = len(rows)
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
		rows := r.eval(n.Input)
		return rows[:min(n.N, len(rows))]
	}
	panic(fmt.Sprintf("refExec: %T", n))
}

// total returns the cycles the plan charges by kind, the sort's charge
// added last.
func (r *refExec) total() [3]float64 {
	t := r.cycles
	if n := float64(r.sortRows); n > 1 {
		t[cpu.Compute] += r.cost.SortCmpCycles * n * math.Log2(n)
		t[cpu.MemStall] += 0.25 * r.cost.SortCmpCycles * n * math.Log2(n)
	}
	return t
}

// propCol describes one generated column to the plan generator.
type propCol struct {
	kind   expr.Kind
	hasNaN bool
}

// propTable is a generated table and what its columns hold.
type propTable struct {
	t    *catalog.Table
	cols []propCol
}

var propWords = []string{"", "a", "ab", "b", "kappa", "zeta", "zeta!"}

func genPropTable(rng *rand.Rand, name string) propTable {
	kinds := []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindString, expr.KindDate}
	width := 2 + rng.Intn(3)
	cols := make([]propCol, width)
	schema := make([]catalog.Column, width)
	nullP := make([]float64, width)
	bigInts := make([]bool, width) // an int column of nothing but 2⁵³..2⁵³+3
	for c := range cols {
		bigInts[c] = rng.Intn(5) == 0
		cols[c].kind = kinds[rng.Intn(len(kinds))]
		schema[c] = catalog.Column{Name: fmt.Sprintf("%s%d", name, c), Kind: cols[c].kind}
		nullP[c] = []float64{0, 0, 0.15, 0.15, 1}[rng.Intn(5)]
	}
	// Pages of one row to a few dozen: up to a dozen morsel runs.
	tb := &catalog.Table{Name: name, Schema: catalog.NewSchema(schema...),
		Heap: storage.NewHeap(int64(20 + rng.Intn(400)))}
	n := 0
	if rng.Intn(20) > 0 {
		n = 1 + rng.Intn(120)
	}
	for i := 0; i < n; i++ {
		row := make(expr.Row, width)
		for c := range row {
			if rng.Float64() < nullP[c] {
				continue // the zero Value is NULL
			}
			switch cols[c].kind {
			case expr.KindInt:
				switch r := rng.Intn(10); {
				case r == 0 || bigInts[c]:
					row[c] = expr.Int(1<<53 + int64(rng.Intn(4))) // tie in pairs as floats
				case r <= 2:
					row[c] = expr.Int(int64(rng.Intn(100) - 50))
				default:
					row[c] = expr.Int(int64(rng.Intn(5)))
				}
			case expr.KindFloat:
				switch rng.Intn(12) {
				case 0:
					row[c] = expr.Float(math.Copysign(0, -1))
				case 1:
					row[c] = expr.Float(0)
				case 2:
					row[c], cols[c].hasNaN = expr.Float(math.NaN()), true
				case 3:
					row[c] = expr.Float(1e10 / 3)
				default:
					row[c] = expr.Float(float64(rng.Intn(7))*0.37 - 1)
				}
			case expr.KindString:
				row[c] = expr.String(propWords[rng.Intn(len(propWords))])
			default:
				row[c] = expr.Date(int64(9000 + rng.Intn(4)))
			}
		}
		tb.Insert(row)
	}
	if rng.Intn(2) == 0 {
		tb.Heap.CompressStrings()
	}
	return propTable{t: tb, cols: cols}
}

// genConst returns a constant comparable with a column of kind k.
func genConst(rng *rand.Rand, k expr.Kind) expr.Value {
	switch k {
	case expr.KindString:
		return expr.String(propWords[rng.Intn(len(propWords))])
	case expr.KindDate:
		return expr.Date(int64(9000 + rng.Intn(4)))
	case expr.KindFloat:
		return expr.Float(float64(rng.Intn(7))*0.37 - 1)
	}
	return expr.Int(int64(rng.Intn(5)))
}

// genPred returns a predicate over columns cols (at positions offset by
// base): a comparison with a constant, or an AND/OR of two.
func genPred(rng *rand.Rand, cols []propCol, depth int) expr.Expr {
	if depth == 0 && rng.Intn(3) == 0 {
		terms := []expr.Expr{genPred(rng, cols, 1), genPred(rng, cols, 1)}
		if rng.Intn(2) == 0 {
			return expr.And{Terms: terms}
		}
		return expr.Or{Terms: terms}
	}
	c := rng.Intn(len(cols))
	return expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: expr.Col{Idx: c}, R: expr.Const{V: genConst(rng, cols[c].kind)}}
}

// genInput returns a scan of pt, half the time filtered, sometimes with a
// further Filter above it — a morsel fragment at workers > 1.
func genInput(rng *rand.Rand, pt propTable) plan.Node {
	var filter expr.Expr
	if rng.Intn(2) == 0 {
		filter = genPred(rng, pt.cols, 0)
	}
	var n plan.Node = plan.NewScan(pt.t, filter)
	if rng.Intn(4) == 0 {
		n = plan.NewFilter(n, genPred(rng, pt.cols, 0))
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

func sortableCols(cols []propCol) []int {
	var out []int
	for c, col := range cols {
		if !col.hasNaN {
			out = append(out, c)
		}
	}
	return out
}

// genJoin joins two generated tables, with a residual half the time.
func genJoin(rng *rand.Rand, build, probe propTable) (plan.Node, []propCol) {
	return joinOf(rng, genInput(rng, build), build.cols, genInput(rng, probe), probe.cols, rng.Intn(2) == 0)
}

// joinOf joins build and probe, whose columns bc and pc describe, on a pair
// of columns — of one kind more often than not; across kinds a join matches
// nothing — and, when residual is set, checks a residual comparing a build
// column with a probe column.
func joinOf(rng *rand.Rand, build plan.Node, bc []propCol, probe plan.Node, pc []propCol, residual bool) (plan.Node, []propCol) {
	bk, pk := rng.Intn(len(bc)), rng.Intn(len(pc))
	for try := 0; try < 8 && bc[bk].kind != pc[pk].kind; try++ {
		bk, pk = rng.Intn(len(bc)), rng.Intn(len(pc))
	}
	cols := append(append([]propCol{}, bc...), pc...)
	var resid expr.Expr
	if residual {
		b, p := rng.Intn(len(bc)), rng.Intn(len(pc))
		if (bc[b].kind == expr.KindString) == (pc[p].kind == expr.KindString) {
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
func genProject(rng *rand.Rand, n plan.Node, cols []propCol) plan.Node {
	var exprs []expr.Expr
	var names []string
	var kinds []expr.Kind
	for i, want := 0, 1+rng.Intn(2); i < want; i++ {
		c := rng.Intn(len(cols))
		var e expr.Expr = expr.Col{Idx: c}
		kind := cols[c].kind
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
func genAgg(rng *rand.Rand, n plan.Node, cols []propCol) (plan.Node, []propCol) {
	groupBy := rng.Perm(len(cols))[:rng.Intn(3)]
	var out []propCol
	for _, g := range groupBy {
		out = append(out, cols[g])
	}
	var numeric []int
	for c, col := range cols {
		if col.kind != expr.KindString {
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
		out = append(out, propCol{kind: expr.KindFloat, hasNaN: true})
	}
	return plan.NewAgg(n, groupBy, aggs), out
}

func genPropPlan(rng *rand.Rand) plan.Node {
	a, b := genPropTable(rng, "a"), genPropTable(rng, "b")
	rows := int(a.t.Heap.NumRows())
	switch rng.Intn(9) {
	case 0, 1: // Sort and Limit(Sort) over a fragment
		return genSort(rng, genInput(rng, a), sortableCols(a.cols), rows)
	case 2: // a join, bare or under a sort with the join as its input operator
		j, cols := genJoin(rng, a, b)
		if rng.Intn(3) == 0 {
			return genSort(rng, j, sortableCols(cols), rows)
		}
		return j
	case 3: // an aggregation over a fragment, bare or sorted
		g, cols := genAgg(rng, genInput(rng, a), a.cols)
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
		c := genPropTable(rng, "c")
		return plan.NewHashJoin(genInput(rng, c), j, rng.Intn(len(c.cols)), rng.Intn(len(cols)), nil)
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
		c := genPropTable(rng, "c")
		var outer plan.Node
		if rng.Intn(2) == 0 {
			outer, cols = joinOf(rng, genInput(rng, c), c.cols, j, cols, rng.Intn(2) == 0)
		} else {
			outer, cols = joinOf(rng, j, cols, genInput(rng, c), c.cols, rng.Intn(2) == 0)
		}
		g, _ := genAgg(rng, outer, cols)
		return g
	default: // a filter over a join with a residual, projected or aggregated
		j, cols := joinOf(rng, genInput(rng, a), a.cols, genInput(rng, b), b.cols, true)
		f := plan.NewFilter(j, genPred(rng, cols, 0))
		if rng.Intn(2) == 0 {
			return genProject(rng, f, cols)
		}
		g, _ := genAgg(rng, f, cols)
		return g
	}
}

// sameValue is Value equality down to the float's bits: NaN equals NaN, -0
// differs from +0.
func sameValue(a, b expr.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestBlockingOperatorsMatchRowReference(t *testing.T) {
	const cases = 1200
	rng := rand.New(rand.NewSource(20260928))
	for c := 0; c < cases; c++ {
		p := genPropPlan(rng)
		ctx, _ := testCtx()
		ref := refExec{cost: ctx.Cost, sortRows: -1}
		want := ref.eval(p)
		wantCycles := ref.total()
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
					if !sameValue(got[i][col], want[i][col]) {
						t.Fatalf("%srow %d col %d: %v, want %v", label, i, col, got[i], want[i])
					}
				}
			}
			if cycles := ctx.CPU.Stats().CyclesByKind; cycles != wantCycles {
				t.Fatalf("%scharged %v cycles, want %v", label, cycles, wantCycles)
			}
			if ref.sortRows >= 0 && obsv.SortRows.Load()-sorted != int64(ref.sortRows) {
				t.Fatalf("%sexec_sort_rows_total moved by %d, want the %d rows the sort consumed",
					label, obsv.SortRows.Load()-sorted, ref.sortRows)
			}
		}
	}
}

// groupKeyOf returns the group key of one tuple of values: its encoding by
// expr.GroupKeys, which defines group-key equality.
func groupKeyOf(vals ...expr.Value) string {
	b := expr.NewBatch(len(vals))
	b.AppendRow(vals)
	cols := make([]int, len(vals))
	for c := range cols {
		cols[c] = c
	}
	var g expr.GroupKeys
	g.Build(b, cols)
	return string(g.Key(0))
}

// The group table partitions rows exactly as their encoded group keys do
// (expr.GroupKeys): one NULL group, -0 with +0, a NaN only with a NaN of
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
				key := groupKeyOf(vals...)
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
					if got, want := tb.vals.Cols[k].Get(g), first[key][k]; !sameValue(got, want) {
						t.Fatalf("case %d %s group %d column %d: %v, want the first-seen %v", c, name, g, k, got, want)
					}
				}
				if got := tb.accs[0].counts[g]; got != count[key] {
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
				key := groupKeyOf(vals...)
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
