package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// Operator is a compiled physical operator in the vectorized pull pipeline.
// The driver calls Open once, Next until it returns nil, then Close.
// Operators charge their work to the context batch-at-a-time as they go.
type Operator interface {
	Schema() *catalog.Schema
	// Open prepares the operator and its inputs. Blocking phases (hash
	// build) run here.
	Open(ctx *Ctx) error
	// Next returns the next batch of output rows, or nil at end of
	// stream. The returned batch is owned by the operator, read-only to
	// the caller, and valid only until the following Next call; values
	// gathered out of it are immutable and may be retained. A column no
	// operator above reads may be an empty vector (liveCols).
	Next(ctx *Ctx) (*expr.Batch, error)
	// Close releases operator state. It is idempotent.
	Close(ctx *Ctx) error
}

// Drain runs op to completion — Open, Next until exhausted, Close —
// invoking fn (when non-nil) on every batch. It is the canonical driver
// loop for callers that do not need incremental pulls.
func Drain(ctx *Ctx, op Operator, fn func(*expr.Batch) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			op.Close(ctx)
			return err
		}
		if b == nil {
			break
		}
		if fn != nil {
			if err := fn(b); err != nil {
				op.Close(ctx)
				return err
			}
		}
	}
	return op.Close(ctx)
}

// fusedOp runs a chain of adjacent filter/project stages as one operator —
// operator fusion: every stage of a batch runs back to back over the same
// column vectors with no per-stage operator dispatch (stageScratch.apply).
// Cycle charging is per stage, in pipeline order. Over a heap the chain,
// scan included, is the fragment of the operator's own pump, and the pump's
// pages with surviving rows are the output; over any other input operator
// the stages run on the coordinator, batch by batch.
type fusedOp struct {
	input  Operator // nil when the pump runs the chain
	pump   morselPump
	stages []fragStage // the operator-input chain; the pump's are in its fragment
	schema *catalog.Schema

	view   expr.Batch    // the input batch as narrowed and projected so far
	ws     *stageScratch // the operator-input chain's; nil when the pump runs the chain
	meters []expr.Cost
}

func (f *fusedOp) Schema() *catalog.Schema { return f.schema }

func (f *fusedOp) Open(ctx *Ctx) error {
	f.meters = make([]expr.Cost, len(f.stages))
	if f.input != nil {
		f.ws = new(stageScratch)
	}
	return openInput(ctx, f.input, &f.pump)
}

// Next returns the next batch with surviving rows; batches without are
// charged and skipped.
func (f *fusedOp) Next(ctx *Ctx) (*expr.Batch, error) {
	for {
		if f.input == nil {
			res := f.pump.next(ctx)
			if res == nil {
				return nil, nil
			}
			if res.rows > 0 {
				return &res.batch, nil
			}
			continue
		}
		in, err := f.input.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		f.view.Alias(in, in.Sel)
		f.ws.apply(f.stages, &f.view, f.meters)
		for i := range f.meters {
			ctx.ChargeExpr(&f.meters[i])
		}
		if f.view.Len() > 0 {
			return &f.view, nil
		}
	}
}

func (f *fusedOp) Close(ctx *Ctx) error {
	f.view, f.ws, f.meters = expr.Batch{}, nil, nil
	return closeInput(ctx, f.input, &f.pump)
}

// hashJoinOp drains the build side into one owned columnar batch during
// Open and indexes its key column (expr.JoinTable), then streams the probe
// side batch by batch: a typed loop over the probe key's payload collects
// (build row, probe row) index pairs, and the output — buildRow ++ probeRow
// — is assembled column by column by gathering through them (assemble). A
// probe side that is a scan→filter→project chain over a heap has no
// operator: the join's own pump runs the fragment and probes each page
// where it was produced, and the coordinator assembles the output from the
// page's pairs (parallel_join.go).
// Only live columns are copied and gathered (liveCols).
type hashJoinOp struct {
	build, probe       Operator // probe is nil when the pump probes
	buildKey, probeKey int
	buildCols          []int // build columns Open copies
	outCols            []int // output columns assembly gathers
	// residual, when non-nil, filters the matches. It reads a batch of the
	// output's width holding only the columns residCols lists.
	residual  *expr.Filter
	residCols []int
	schema    *catalog.Schema

	pump morselPump

	// rows is the build side in arrival order and table the index over its
	// key column, both leased (Account). Both are read-only once Open
	// returns, which is what lets pump producers share them without locks.
	rows  *expr.Batch
	table *expr.JoinTable

	// Coordinator state: the operator-input probe's match pairs, the output
	// batch every Next returns, and the residual's columns, survivors,
	// working memory and meter (the batch and working memory nil without a
	// residual). The batches are leased.
	scratch  probeScratch
	out      *expr.Batch
	resid    *expr.Batch
	sel      []int32
	residScr *expr.FilterScratch
	meter    expr.Cost
}

// probeScratch holds one probed batch's matches as (build row, probe row)
// index pairs: probe rows in order, each one's build rows in build order.
// The operator-input probe owns one; a pump record keeps one of its own, so
// producers never share mutable state.
type probeScratch struct {
	keys     expr.ProbeScratch // the batch's key hashes and chain heads
	buildIdx []int32
	probeIdx []int32
}

// probe looks in's probe keys up in the completed (read-only) table,
// replacing the pairs, and returns the match count. It charges nothing.
func (ps *probeScratch) probe(j *hashJoinOp, in *expr.Batch) int {
	ps.buildIdx, ps.probeIdx = j.table.Probe(&in.Cols[j.probeKey], in.Sel, &ps.keys, ps.buildIdx[:0], ps.probeIdx[:0])
	return len(ps.buildIdx)
}

// keep narrows the pairs to the ones at the ascending positions sel names.
func (ps *probeScratch) keep(sel []int32) {
	for k, i := range sel {
		ps.buildIdx[k], ps.probeIdx[k] = ps.buildIdx[i], ps.probeIdx[i]
	}
	ps.buildIdx, ps.probeIdx = ps.buildIdx[:len(sel)], ps.probeIdx[:len(sel)]
}

func (j *hashJoinOp) Schema() *catalog.Schema { return j.schema }

// Open drains the build side's live columns, charging build work per
// batch, then indexes the key column. Simulated accounting happens entirely
// during the drain (table construction is real work only), so results,
// durations, and joules do not depend on how the table is built. NULL keys
// enter no chain: NULL never equals NULL under join semantics (Cmp.Eval
// returns false on NULL), so they could never meet a NULL probe key.
func (j *hashJoinOp) Open(ctx *Ctx) error {
	build := ctx.Mem.joinBuild(j.build.Schema().NumCols())
	j.rows, j.table = &build.rows, &build.table
	if err := j.build.Open(ctx); err != nil {
		return err
	}
	for {
		b, err := j.build.Next(ctx)
		if err != nil {
			j.build.Close(ctx)
			return err
		}
		if b == nil {
			break
		}
		for _, c := range j.buildCols {
			j.rows.Cols[c].AppendFrom(&b.Cols[c], b.Sel)
		}
		j.rows.N += b.Len()
		ctx.Cost.JoinBuild(ctx, float64(b.Len()))
	}
	if err := j.build.Close(ctx); err != nil {
		return err
	}
	ctx.Flush()
	j.table.Build(&j.rows.Cols[j.buildKey])
	j.out = ctx.Mem.batch(j.schema.NumCols())
	if j.residual != nil {
		j.resid = ctx.Mem.batch(j.schema.NumCols())
		j.residScr = new(expr.FilterScratch)
	}
	return openInput(ctx, j.probe, &j.pump)
}

func (j *hashJoinOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if j.probe == nil {
		return j.pumpNext(ctx)
	}
	for {
		in, err := j.probe.Next(ctx)
		if err != nil || in == nil {
			return nil, err
		}
		matches := j.scratch.probe(j, in)
		if out := j.join(ctx, in, in.Len(), matches, &j.scratch); out != nil {
			return out, nil
		}
	}
}

// join charges one probed batch — probe work for its rows, match work for
// its matches, then what the residual metered — and returns
// its output, or nil when no row comes out. Next and the pump's coordinator
// share it, so only the coordinator touches the simulated machine.
func (j *hashJoinOp) join(ctx *Ctx, in *expr.Batch, rows, matches int, ps *probeScratch) *expr.Batch {
	ctx.Cost.JoinProbe(ctx, float64(rows), float64(matches))
	if matches > 0 {
		j.assemble(in, ps)
	}
	ctx.ChargeExpr(&j.meter)
	if matches == 0 || j.out.N == 0 {
		return nil
	}
	return j.out
}

// assemble gathers the output rows of ps's pairs, which are at least one,
// into j.out. With a residual, only the columns it reads are gathered over
// every match; it filters them — metering into j.meter what filtering the
// whole output would, since the candidates are the same — the pairs narrow
// to its survivors, and only the survivors are gathered into the output.
func (j *hashJoinOp) assemble(in *expr.Batch, ps *probeScratch) {
	if j.residual != nil {
		j.gather(j.resid, j.residCols, in, ps)
		j.sel = j.residual.Select(j.resid, j.sel, j.residScr, &j.meter)
		ps.keep(j.sel)
	}
	j.gather(j.out, j.outCols, in, ps)
}

// gather fills the output columns cols of dst, a batch of the output's
// width, with the pairs' rows.
func (j *hashJoinOp) gather(dst *expr.Batch, cols []int, in *expr.Batch, ps *probeScratch) {
	dst.Reset()
	buildWidth := j.rows.Width()
	for _, c := range cols {
		if c < buildWidth {
			dst.Cols[c].AppendFrom(&j.rows.Cols[c], ps.buildIdx)
		} else {
			dst.Cols[c].AppendFrom(&in.Cols[c-buildWidth], ps.probeIdx)
		}
	}
	dst.N = len(ps.buildIdx)
}

func (j *hashJoinOp) Close(ctx *Ctx) error {
	err := closeInput(ctx, j.probe, &j.pump) // stop the producers before releasing what they read
	j.rows, j.table, j.scratch = nil, nil, probeScratch{}
	j.out, j.resid, j.sel, j.residScr = nil, nil, nil, nil
	return err
}

// aggTable is the group table of a hash aggregation, columnar throughout:
// groups are numbered in first-seen order, each group's group-by values sit
// in one row of vals, every group counts the rows folded into it once for
// all aggregates (rows), and every aggregate keeps one typed accumulator
// slice per thing its function needs (aggAcc). The serial operator folds
// batches straight into one table; a parallel worker folds its morsel run
// into a private partial — the same fold, except that SUM and AVG arguments
// are kept in row order instead of added up (deferSums) — which the
// coordinator then merges into the global table. NULL, COUNT and MIN/MAX
// tie semantics therefore cannot diverge between the two.
//
// Without GROUP BY there is one group, and no row is resolved to it: a
// batch adds its length to the count, and a partial's row values go to the
// one sum in the order they were folded.
type aggTable struct {
	groupBy []int
	aggs    []plan.AggSpec
	// deferSums marks a run partial: float addition is not associative, so
	// only the coordinator may add SUM/AVG arguments up, in global row
	// order. A partial with a SUM or AVG records, per SUM/AVG aggregate,
	// each folded row's argument as a float (rowVals) and, with GROUP BY,
	// the row's group id (rowGid), for merge to add.
	deferSums bool

	index expr.KeyTable  // group key → group id; empty without GROUP BY
	vals  expr.Batch     // group id → the group-by columns' values
	keys  []*expr.ColVec // vals' columns, which index's ids address
	rows  []int64        // group id → rows folded into the group
	accs  []aggAcc       // per aggregate

	rowGid  []int32
	rowVals [][]float64 // per aggregate; empty unless a partial has a SUM or AVG

	// Per-batch scratch.
	in      []*expr.ColVec // the batch's group-by columns
	argVecs []*expr.ColVec // per aggregate; nil for a bare COUNT(*)
	gid     []int32
	floats  []float64
}

// aggAcc is one aggregate's accumulators, indexed by group id. Only the
// slices its function reads at emission are maintained; the rest stay nil.
type aggAcc struct {
	nulls []int64      // COUNT, SUM, AVG: rows whose argument was NULL, which count leaves out
	sums  []float64    // SUM, AVG
	ext   []expr.Value // MIN, MAX: the extreme so far, NULL until a value arrives
}

// shape empties t and forms it for groupBy and aggs, keeping every buffer
// it holds, whatever grouping and aggregates it held them for: a leased
// table (Account) may come from any statement.
func (t *aggTable) shape(groupBy []int, aggs []plan.AggSpec, deferSums bool) {
	t.groupBy, t.aggs, t.deferSums = groupBy, aggs, deferSums
	t.vals.SetWidth(len(groupBy))
	t.keys, t.in = expr.Resize(t.keys, len(groupBy)), expr.Resize(t.in, len(groupBy))
	for c := range t.keys {
		t.keys[c] = &t.vals.Cols[c]
	}
	t.accs = expr.Resize(t.accs, len(aggs))
	t.argVecs = expr.Resize(t.argVecs, len(aggs))
	for i, spec := range aggs {
		// A COUNT(*) has no argument: a vector left from another table
		// would count its NULLs.
		switch {
		case spec.Arg == nil:
			t.argVecs[i] = nil
		case t.argVecs[i] == nil:
			t.argVecs[i] = new(expr.ColVec)
		}
	}
	addsFloats := slices.ContainsFunc(aggs, func(a plan.AggSpec) bool {
		return a.Func == plan.Sum || a.Func == plan.Avg
	})
	t.rowVals = t.rowVals[:0]
	if deferSums && addsFloats {
		t.rowVals = expr.Resize(t.rowVals, len(aggs))
	}
	t.reset()
}

// reset empties a partial for its next run, keeping every buffer.
func (t *aggTable) reset() {
	t.index.Reset()
	t.vals.Reset()
	t.rows = t.rows[:0]
	for i := range t.accs {
		acc := &t.accs[i]
		acc.nulls, acc.sums, acc.ext = acc.nulls[:0], acc.sums[:0], acc.ext[:0]
	}
	for i := range t.rowVals {
		t.rowVals[i] = t.rowVals[i][:0]
	}
	t.rowGid = t.rowGid[:0]
}

// reserve makes room in a partial's row vectors for n more folded rows, so
// that folding them appends without regrowing.
func (t *aggTable) reserve(n int) {
	if len(t.rowVals) == 0 {
		return
	}
	if len(t.groupBy) > 0 {
		t.rowGid = slices.Grow(t.rowGid, n)
	}
	for i, spec := range t.aggs {
		if spec.Func == plan.Sum || spec.Func == plan.Avg {
			t.rowVals[i] = slices.Grow(t.rowVals[i], n)
		}
	}
}

// addGroup numbers a new group and gives it, and every accumulator, a zero
// slot. The caller appends the group's group-by values to t.vals.
func (t *aggTable) addGroup() int32 {
	g := int32(t.vals.N)
	t.vals.N++
	t.rows = append(t.rows, 0)
	for i, spec := range t.aggs {
		acc := &t.accs[i]
		switch spec.Func {
		case plan.Count:
			acc.nulls = append(acc.nulls, 0)
		case plan.Sum, plan.Avg:
			acc.nulls = append(acc.nulls, 0)
			acc.sums = append(acc.sums, 0)
		case plan.Min, plan.Max:
			acc.ext = append(acc.ext, expr.Null())
		default:
			panic(fmt.Sprintf("exec: unknown aggregate %v", spec.Func))
		}
	}
	return g
}

// count is aggregate i's count for group g: the group's rows whose
// argument is not NULL — all of them for COUNT(*).
func (t *aggTable) count(i int, g int32) int64 { return t.rows[g] - t.accs[i].nulls[g] }

// groupIDs resolves every logical row of in to its group id, creating
// groups as they are first seen. It needs GROUP BY.
func (t *aggTable) groupIDs(in *expr.Batch) []int32 {
	n := in.Len()
	if cap(t.gid) < n {
		t.gid = make([]int32, n)
	}
	for c, col := range t.groupBy {
		t.in[c] = &in.Cols[col]
	}
	t.resolve(t.gid[:n], t.in, in.Sel)
	return t.gid[:n]
}

// resolve sets gid[li] to the group id of logical row li of the group-by
// columns cols (through sel when it is non-nil), numbering groups in the
// order they are first seen: the index hashes the rows column-wise and
// checks a hit against the group's values in vals. It needs GROUP BY.
func (t *aggTable) resolve(gid []int32, cols []*expr.ColVec, sel []int32) {
	t.index.Resolve(t.keys, cols, sel, gid, func(i int) int32 {
		g := t.addGroup()
		for c, col := range cols {
			t.vals.Cols[c].AppendElem(col, int32(i))
		}
		return g
	})
}

// fold consumes one batch: aggregate arguments evaluate batch-wise into
// reused vectors (charging meter exactly what per-row Eval charges), rows
// resolve to group ids and are counted once per group, and each aggregate
// folds its argument vector's payload into its accumulators in row order.
// A SUM or AVG of a bare NULL-free Int or Float column reads the batch's
// column through its selection instead, billed what evaluating the column
// would bill, in the same place. Without GROUP BY, gid stays nil: every
// fold below then folds into group 0.
func (t *aggTable) fold(in *expr.Batch, meter *expr.Cost) {
	for i, spec := range t.aggs {
		switch {
		case bareSumArg(spec, in) != nil:
			meter.Add(float64(in.Len()) * expr.EvalCycles(spec.Arg))
		case spec.Arg != nil:
			expr.EvalBatch(spec.Arg, in, t.argVecs[i], meter)
		}
	}
	n := in.Len()
	if n == 0 {
		return
	}
	var gid []int32
	if len(t.groupBy) > 0 {
		gid = t.groupIDs(in)
		for _, g := range gid {
			t.rows[g]++
		}
	} else {
		if t.vals.N == 0 {
			t.addGroup()
		}
		t.rows[0] += int64(n)
	}
	if cap(t.floats) < n {
		t.floats = make([]float64, n)
	}
	for i, spec := range t.aggs {
		acc, vec := &t.accs[i], t.argVecs[i]
		switch spec.Func {
		case plan.Count:
			// COUNT(expr) leaves out rows where the argument is NULL; bare
			// COUNT(*) (nil Arg) counts every row.
			if vec != nil {
				countNulls(acc.nulls, gid, vec.Nulls, n)
			}
		case plan.Min:
			expr.FoldExtremes(acc.ext, gid, vec, -1)
		case plan.Max:
			expr.FoldExtremes(acc.ext, gid, vec, +1)
		default: // Sum, Avg
			if v := bareSumArg(spec, in); v != nil {
				if v.Kind == expr.KindFloat {
					foldSum(t, i, gid, v.F, in.Sel, n)
				} else {
					foldSum(t, i, gid, v.I, in.Sel, n)
				}
				continue
			}
			countNulls(acc.nulls, gid, vec.Nulls, n)
			foldSum(t, i, gid, vec.AsFloats(t.floats), nil, n)
		}
	}
	if len(t.rowVals) > 0 && gid != nil {
		t.rowGid = append(t.rowGid, gid...)
	}
}

// countNulls counts, per group, the first n rows whose argument is NULL
// (none when nulls is nil). A nil gid counts them all towards group 0.
func countNulls(counts []int64, gid []int32, nulls []bool, n int) {
	if nulls == nil {
		return
	}
	if gid == nil {
		for _, null := range nulls[:n] {
			if null {
				counts[0]++
			}
		}
		return
	}
	for li, g := range gid {
		if nulls[li] {
			counts[g]++
		}
	}
}

// bareSumArg returns the column of in that aggregate spec, a SUM or AVG,
// adds up as it stands: its argument is a bare column, Int or Float, with
// no NULL. Otherwise it returns nil.
func bareSumArg(spec plan.AggSpec, in *expr.Batch) *expr.ColVec {
	col, ok := spec.Arg.(expr.Col)
	if !ok || spec.Func != plan.Sum && spec.Func != plan.Avg {
		return nil
	}
	if v := &in.Cols[col.Idx]; v.Nulls == nil && (v.Kind == expr.KindInt || v.Kind == expr.KindFloat) {
		return v
	}
	return nil
}

// foldSum folds the n row values of SUM or AVG aggregate i of t, vals'
// elements through sel, into the partial's row values or the sums.
func foldSum[T int64 | float64](t *aggTable, i int, gid []int32, vals []T, sel []int32, n int) {
	if t.deferSums {
		t.rowVals[i] = appendFloats(t.rowVals[i], vals, sel, n)
		return
	}
	addFloats(t.accs[i].sums, gid, vals, sel, n)
}

// appendFloats appends the first n logical elements of vals (through sel)
// to dst as floats.
func appendFloats[T int64 | float64](dst []float64, vals []T, sel []int32, n int) []float64 {
	if sel == nil {
		for _, x := range vals[:n] {
			dst = append(dst, float64(x))
		}
		return dst
	}
	for _, i := range sel[:n] {
		dst = append(dst, float64(vals[i]))
	}
	return dst
}

// addFloats adds each of n rows' values, vals' elements through sel, to its
// group's sum — gid's, or group 0's when gid is nil — as a float, in row
// order: the one place SUM and AVG add, so the serial fold and the
// coordinator's merge of run partials perform the same additions in the
// same sequence. NULL arguments arrive as +0 (ColVec.AsFloats) and are
// added like any other: a sum starts at +0 and no addition can make it -0,
// so adding +0 never changes its bits.
func addFloats[T int64 | float64](sums []float64, gid []int32, vals []T, sel []int32, n int) {
	switch {
	case gid == nil:
		s := sums[0]
		if sel == nil {
			for _, x := range vals[:n] {
				s += float64(x)
			}
		} else {
			for _, i := range sel[:n] {
				s += float64(vals[i])
			}
		}
		sums[0] = s
	case sel == nil:
		for li, g := range gid {
			sums[g] += float64(vals[li])
		}
	default:
		for li, g := range gid {
			sums[g] += float64(vals[sel[li]])
		}
	}
}

// merge folds a run partial into t. Partials must merge in run order —
// page order × row order is global row order — so every float addition
// happens in the sequence the serial fold performs it. Counts are integers
// and MIN/MAX keep the strict-inequality "earliest wins" rule, so those
// merge losslessly group by group. Without GROUP BY the partial's one
// group is t's, and its row values add to the one sum as they stand.
func (t *aggTable) merge(p *aggTable) {
	if p.vals.N == 0 {
		return
	}
	// remap (p's group id → t's) lives in t's group-id scratch, which no
	// merge needs otherwise: one merge per run must not allocate.
	if cap(t.gid) < p.vals.N {
		t.gid = make([]int32, p.vals.N)
	}
	remap := t.gid[:p.vals.N]
	var rowGid []int32 // nil: every row value is group 0's
	if len(t.groupBy) > 0 {
		t.resolve(remap, p.keys, nil)
		for r, pg := range p.rowGid {
			p.rowGid[r] = remap[pg]
		}
		rowGid = p.rowGid
	} else {
		if t.vals.N == 0 {
			t.addGroup()
		}
		remap[0] = 0
	}
	for pg, g := range remap {
		t.rows[g] += p.rows[pg]
	}
	for i, spec := range t.aggs {
		acc, pacc := &t.accs[i], &p.accs[i]
		switch spec.Func {
		case plan.Min, plan.Max:
			sign := -1
			if spec.Func == plan.Max {
				sign = +1
			}
			for pg, g := range remap {
				expr.FoldExtreme(&acc.ext[g], pacc.ext[pg], sign)
			}
			continue
		case plan.Sum, plan.Avg:
			addFloats(acc.sums, rowGid, p.rowVals[i], nil, len(p.rowVals[i]))
		}
		for pg, g := range remap {
			acc.nulls[g] += pacc.nulls[pg]
		}
	}
}

// emit writes one output row per group straight into out's vectors —
// group-by values gathered from vals, then the aggregates — in ascending
// group-key order (ColVec.CompareKeys, column by column): the single
// deterministic emission order shared by the serial and parallel paths, so
// output order is a pure function of the group set (never of hashing,
// input order, or worker count). A global aggregate always yields one row:
// COUNT is 0 and the value aggregates are NULL when no input rows arrived.
func (t *aggTable) emit(out *expr.Batch) {
	if len(t.groupBy) == 0 && t.vals.N == 0 {
		t.addGroup()
	}
	order := make([]int32, t.vals.N)
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int {
		for c := range t.groupBy {
			if r := t.vals.Cols[c].CompareKeys(a, b); r != 0 {
				return r
			}
		}
		return 0
	})
	out.Reset()
	for c := range t.groupBy {
		out.Cols[c].AppendFrom(&t.vals.Cols[c], order)
	}
	for i, spec := range t.aggs {
		acc, col := &t.accs[i], &out.Cols[len(t.groupBy)+i]
		for _, g := range order {
			switch {
			case spec.Func == plan.Count:
				col.Append(expr.Int(t.count(i, g)))
			case spec.Func == plan.Min || spec.Func == plan.Max:
				col.Append(acc.ext[g])
			case t.count(i, g) == 0:
				// SUM and AVG over zero non-NULL inputs are NULL, not 0.
				col.Append(expr.Null())
			case spec.Func == plan.Sum:
				col.Append(expr.Float(acc.sums[g]))
			default:
				col.Append(expr.Float(acc.sums[g] / float64(t.count(i, g))))
			}
		}
	}
	out.N = len(order)
}

// aggOutput is the emitted result of an aggregation and the cursor serving
// it in batch-sized windows — zero-copy views of the one result batch.
type aggOutput struct {
	res   *expr.Batch // leased
	ident []int32     // identity selection the windows slice
	pos   int
	view  expr.Batch
}

func (o *aggOutput) next(ctx *Ctx) *expr.Batch {
	if o.pos >= o.res.N {
		return nil
	}
	end := min(o.pos+ctx.BatchTarget(), o.res.N)
	for i := len(o.ident); i < end; i++ {
		o.ident = append(o.ident, int32(i))
	}
	o.view.Alias(o.res, o.ident[o.pos:end])
	o.pos = end
	return &o.view
}

// aggOp is a hash aggregation over single- or multi-column groups. It
// consumes its whole input on the first Next, then serves the grouped
// output in batches. Over a heap fragment its own pump's producers fold
// their runs into partial tables (parallel_agg.go); over any other input
// operator the coordinator folds each batch into the global table itself.
type aggOp struct {
	input   Operator // nil when the pump feeds the aggregation
	pump    morselPump
	groupBy []int
	aggs    []plan.AggSpec
	schema  *catalog.Schema

	mem     *Account // the statement's, which producers lease run partials from
	table   *aggTable
	started bool
	out     aggOutput
}

func (a *aggOp) Schema() *catalog.Schema { return a.schema }

func (a *aggOp) Open(ctx *Ctx) error {
	a.mem = &ctx.Mem
	a.table = ctx.Mem.aggTable(a.groupBy, a.aggs, false)
	a.started = false
	a.out = aggOutput{res: ctx.Mem.batch(a.schema.NumCols())}
	return openInput(ctx, a.input, &a.pump)
}

func (a *aggOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if !a.started {
		a.started = true
		if err := a.consume(ctx); err != nil {
			return nil, err
		}
	}
	return a.out.next(ctx), nil
}

// consume drains the input into the global group table, then emits one
// output row per group. Batches are consumed straight from their column
// payloads, so the per-tuple work is one hash-table probe and the
// accumulator folds. The pump's pages come in page order — after each
// page's scan accounting, the aggregation's per-row cycles and argument
// meter, and on a run's last page the merge of the run's partial — so run
// partials arrive in run order, the order aggTable.merge needs.
func (a *aggOp) consume(ctx *Ctx) error {
	if a.input == nil {
		for res := a.pump.next(ctx); res != nil; res = a.pump.next(ctx) {
			if res.rows > 0 {
				ctx.Cost.AggFold(ctx, float64(res.rows))
				ctx.ChargeExpr(&res.argMeter)
			}
			if res.part != nil {
				a.table.merge(res.part)
				a.mem.merged(res.part)
			}
		}
	} else {
		var meter expr.Cost
		for {
			in, err := a.input.Next(ctx)
			if err != nil {
				return err
			}
			if in == nil {
				break
			}
			ctx.Cost.AggFold(ctx, float64(in.Len()))
			a.table.fold(in, &meter)
			ctx.ChargeExpr(&meter)
		}
	}
	a.table.emit(a.out.res)
	ctx.Cost.AggEmit(ctx, float64(a.out.res.N))
	ctx.Flush()
	return nil
}

func (a *aggOp) Close(ctx *Ctx) error {
	err := closeInput(ctx, a.input, &a.pump)
	a.mem, a.table, a.out = nil, nil, aggOutput{}
	return err
}

// sortedRun accumulates rows and orders them by (keys, arrival ordinal): the
// whole input of a sort over an input operator, or one claimed run of pages
// of a sort over its own pump.
// Rows are copied columnar into buf as they arrive and ordered through a
// permutation, so serving gathers typed vectors straight from the buffer.
// Ordinals rise with arrival, which makes the order total — a stable sort
// by the keys — and lets sorted runs merge into exactly the order one sort
// over all of them would produce.
//
// With limit >= 0 the consumer takes only the first limit rows, so the run
// keeps only its limit smallest: perm is a max-heap (worst kept row at the
// root), a row is tested against the root on its keys before it is copied,
// and rows that fall out of the heap stay behind in buf until the next
// compaction. Once there is a row to beat — the root of a full heap, or
// the bound — a batch first loses, in one typed selection on the first
// sort key, every row that sorts strictly after the tighter of the two on
// that key alone; only the rest take the exact test. Consumed rows are
// counted either way — a sort charges for the rows it consumes, never for
// the rows it keeps.
type sortedRun struct {
	keys  []plan.SortKey
	limit int // rows the consumer will take; negative = all of them

	// bound, when non-nil, is a row of a sealed run that at least limit
	// rows of sealed runs sort at or before: a row that sorts after it
	// cannot be among the first limit overall and is dropped untested
	// against the heap (parallel_sort.go).
	bound *sortBound

	buf   expr.Batch
	ord   []int64 // per buffer row: arrival ordinal
	perm  []int32 // buffer rows: the heap while adding, in order once sealed
	pos   int     // serve/merge cursor into perm
	rows  int     // rows consumed
	spare expr.Batch
	ords  []int64 // compaction's other halves of buf and ord
	keep  []int32 // the rows of a batch the first-key selection keeps
}

// sortBound names one row of a sealed run.
type sortBound struct {
	run *sortedRun
	row int32
}

// after reports whether physical row i of in, with ordinal ord, sorts after
// the bound row under (keys, ordinal).
func (b *sortBound) after(in *expr.Batch, i int32, ord int64) bool {
	c := expr.CompareRows(b.run.keys, in, i, &b.run.buf, b.row)
	return c > 0 || (c == 0 && ord > b.run.ord[b.row])
}

// shape empties r and forms it for keys, limit and rows width columns
// wide, keeping every buffer it holds: a leased run (Account) may come
// from any statement.
func (r *sortedRun) shape(keys []plan.SortKey, limit, width int) {
	r.keys, r.limit, r.bound = keys, limit, nil
	r.buf.SetWidth(width)
	r.buf.Reset()
	if limit >= 0 { // compact gathers into spare
		r.spare.SetWidth(width)
		r.spare.Reset()
	}
	r.ord, r.perm, r.ords, r.keep = r.ord[:0], r.perm[:0], r.ords[:0], r.keep[:0]
	r.pos, r.rows = 0, 0
}

// add consumes one batch. Logical row li's ordinal is base plus its
// physical index; callers advance base past the batch's physical rows, so
// ordinals rise in arrival order.
func (r *sortedRun) add(in *expr.Batch, base int64) {
	n := in.Len()
	r.rows += n
	if r.limit < 0 {
		for li := 0; li < n; li++ {
			r.ord = append(r.ord, base+int64(in.RowIdx(li)))
		}
		r.buf.AppendBatch(in, n)
		return
	}
	if r.limit == 0 {
		return
	}
	sel := in.Sel
	if k, ok := r.cutoff(); ok {
		if cap(r.keep) < in.N {
			r.keep = make([]int32, 0, in.N)
		}
		key := r.keys[0]
		if kept, ok := expr.SelectNotAfter(&in.Cols[key.Col], k, key.Desc, in.Sel, r.keep[:0]); ok {
			sel, n = kept, len(kept)
		}
	}
	for li := 0; li < n; li++ {
		i := int32(li)
		if sel != nil {
			i = sel[li]
		}
		if r.bound != nil && r.bound.after(in, i, base+int64(i)) {
			continue
		}
		full := len(r.perm) == r.limit
		// A full heap admits only a row that beats its worst on the keys:
		// the newcomer arrived later, so a tie loses to every kept row.
		if full && expr.CompareRows(r.keys, in, i, &r.buf, r.perm[0]) >= 0 {
			continue
		}
		for c := range r.buf.Cols {
			r.buf.Cols[c].AppendElem(&in.Cols[c], i)
		}
		r.ord = append(r.ord, base+int64(i))
		row := int32(r.buf.N)
		r.buf.N++
		if full {
			r.perm[0] = row
			r.siftDown(0)
		} else {
			r.perm = append(r.perm, row)
			r.siftUp(len(r.perm) - 1)
		}
	}
	if r.buf.N >= 2*r.limit+sortCompactSlack {
		r.compact()
	}
}

// cutoff returns the first sort key of the row a newcomer must beat — the
// root of a full heap or the bound's row, whichever sorts first — and
// false when there is none yet.
func (r *sortedRun) cutoff() (expr.Value, bool) {
	col := r.keys[0].Col
	if len(r.perm) == r.limit {
		if root := r.perm[0]; r.bound == nil || !r.bound.after(&r.buf, root, r.ord[root]) {
			return r.buf.Cols[col].Get(int(root)), true
		}
	}
	if b := r.bound; b != nil {
		return b.run.buf.Cols[col].Get(int(b.row)), true
	}
	return expr.Value{}, false
}

// sortCompactSlack is how many evicted rows beyond its limit a top-N run
// lets pile up in its buffer before compacting: enough that a small limit
// does not compact on every other row.
const sortCompactSlack = 64

// compact drops the rows no longer in the heap, gathering the kept ones
// into the spare buffer in heap order (so the heap becomes the identity).
func (r *sortedRun) compact() {
	r.spare.Reset()
	for c := range r.buf.Cols {
		r.spare.Cols[c].AppendFrom(&r.buf.Cols[c], r.perm)
	}
	r.spare.N = len(r.perm)
	r.ords = r.ords[:0]
	for k, row := range r.perm {
		r.ords = append(r.ords, r.ord[row])
		r.perm[k] = int32(k)
	}
	r.buf, r.spare = r.spare, r.buf
	r.ord, r.ords = r.ords, r.ord
}

// order orders buffer rows a and b by (keys, ordinal).
func (r *sortedRun) order(a, b int32) int {
	if c := expr.CompareRows(r.keys, &r.buf, a, &r.buf, b); c != 0 {
		return c
	}
	return cmp.Compare(r.ord[a], r.ord[b])
}

func (r *sortedRun) siftUp(k int) {
	for k > 0 {
		parent := (k - 1) / 2
		if r.order(r.perm[k], r.perm[parent]) <= 0 {
			return
		}
		r.perm[k], r.perm[parent] = r.perm[parent], r.perm[k]
		k = parent
	}
}

func (r *sortedRun) siftDown(k int) {
	for {
		worst := k
		for child := 2*k + 1; child <= 2*k+2 && child < len(r.perm); child++ {
			if r.order(r.perm[child], r.perm[worst]) > 0 {
				worst = child
			}
		}
		if worst == k {
			return
		}
		r.perm[k], r.perm[worst] = r.perm[worst], r.perm[k]
		k = worst
	}
}

// seal orders the kept rows; the run is then ready to serve or merge. The
// buffer is final by now, so the comparator is built for its payloads.
func (r *sortedRun) seal() {
	if r.limit < 0 {
		r.perm = expr.Resize(r.perm, r.buf.N)
		for i := range r.perm {
			r.perm[i] = int32(i)
		}
	}
	byKeys := expr.KeyOrder(r.keys, &r.buf)
	slices.SortFunc(r.perm, func(a, b int32) int {
		if c := byKeys(a, b); c != 0 {
			return c
		}
		return cmp.Compare(r.ord[a], r.ord[b])
	})
}

// sortOp materializes its input into sorted runs on the first Next,
// charging n·log₂n compares on the rows consumed, then merges the runs and
// serves the ordered rows in columnar batches gathered from the runs'
// buffers — downstream consumers keep their columnar fast paths instead of
// receiving re-rowified batches. Over a heap fragment its own pump's
// producers generate one sorted run per claimed run of pages
// (parallel_sort.go); over any other input operator the coordinator sorts
// the whole input as one run.
type sortOp struct {
	input  Operator // nil when the pump generates the runs
	pump   morselPump
	keys   []plan.SortKey
	limit  int // handed down by a Limit directly above; negative = none
	schema *catalog.Schema

	// cut is the first limit rows, in (keys, ordinal) order, over every
	// pump run sealed so far; bound is its last row once it holds limit
	// (see sortedRun.bound and offer). Which rows a run keeps therefore
	// depends on which runs sealed while it ran, but the first limit rows
	// of the merge do not — no row among them ever sorts after a bound.
	mu        sync.Mutex
	cut, cut2 []sortBound // cut2: the merge's other half
	bound     atomic.Pointer[sortBound]
	mem       *Account // the statement's, which producers lease sorted runs from
	runs      []*sortedRun
	lt        *loserTree
	served    int
	out       *expr.Batch // leased
}

func (s *sortOp) Schema() *catalog.Schema { return s.schema }

func (s *sortOp) Open(ctx *Ctx) error {
	s.runs, s.lt, s.served, s.cut, s.cut2 = nil, nil, 0, nil, nil
	s.bound.Store(nil)
	s.mem = &ctx.Mem
	s.out = ctx.Mem.batch(s.schema.NumCols())
	return openInput(ctx, s.input, &s.pump)
}

// consume collects the sorted runs — the pump's in page order, or the one
// run of the whole input operator — then charges the sort formula on the
// rows consumed over all of them and seats the merge tree.
func (s *sortOp) consume(ctx *Ctx) error {
	rows := 0
	if s.input == nil {
		for res := s.pump.next(ctx); res != nil; res = s.pump.next(ctx) {
			if res.run != nil {
				rows += res.run.rows
				if len(res.run.perm) > 0 {
					s.runs = append(s.runs, res.run)
				}
			}
		}
	} else {
		run := ctx.Mem.sortedRun(s.keys, s.limit, s.schema.NumCols())
		base := int64(0)
		for {
			in, err := s.input.Next(ctx)
			if err != nil {
				return err
			}
			if in == nil {
				break
			}
			run.add(in, base)
			base += int64(in.N)
		}
		run.seal()
		rows = run.rows
		s.runs = []*sortedRun{run}
	}
	obsv.SortRows.Add(int64(rows))
	ctx.Cost.Sort(ctx, float64(rows))
	ctx.Flush()
	if s.input == nil && len(s.runs) > 0 {
		obsv.MergePasses.Inc() // single-level merge: one pass over the runs
	}
	s.lt = newLoserTree(s.runs)
	return nil
}

// Next serves the merge's next batch. Each stretch of rows the winning run
// supplies before another run's head sorts first is gathered with one
// AppendFrom per column, so a one-run sort gathers each batch at once.
func (s *sortOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if s.lt == nil {
		if err := s.consume(ctx); err != nil {
			return nil, err
		}
	}
	target := ctx.BatchTarget()
	if s.limit >= 0 {
		target = min(target, s.limit-s.served)
	}
	s.out.Reset()
	for s.out.N < target {
		run, rows := s.lt.popStretch(target - s.out.N)
		if run == nil {
			break
		}
		for c := range s.out.Cols {
			s.out.Cols[c].AppendFrom(&run.buf.Cols[c], rows)
		}
		s.out.N += len(rows)
	}
	if s.out.N == 0 {
		return nil, nil
	}
	s.served += s.out.N
	return s.out, nil
}

// Close drops every pointer into the runs — the cutoff and its bound
// included — since the runs are leased and, once the statement is
// released, another statement's.
func (s *sortOp) Close(ctx *Ctx) error {
	err := closeInput(ctx, s.input, &s.pump)
	s.runs, s.lt, s.cut, s.cut2 = nil, nil, nil, nil
	s.bound.Store(nil)
	s.mem, s.out = nil, nil
	return err
}

// limitOp serves the first n rows of any input but a sort. The input still
// runs to completion, matching the engines under study: once the limit is
// reached the remaining input is drained before the final batch is
// returned, so its full cost lands inside this query. A LIMIT over a sort
// compiles to the sort alone, told n: it serves no more than n rows, having
// consumed and charged its whole input by then.
type limitOp struct {
	input Operator
	n     int

	remaining int
	done      bool
	identSel  []int32 // identity selection for prefix views of dense input
	out       expr.Batch
	final     *expr.Batch // leased
}

func (l *limitOp) Schema() *catalog.Schema { return l.input.Schema() }

func (l *limitOp) Open(ctx *Ctx) error {
	l.remaining, l.done = l.n, false
	l.final = ctx.Mem.batch(l.input.Schema().NumCols())
	return l.input.Open(ctx)
}

func (l *limitOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if l.done {
		return nil, nil
	}
	for {
		in, err := l.input.Next(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			l.done = true
			return nil, nil
		}
		if l.remaining == 0 {
			continue // past the limit: keep draining the input's work
		}
		keep := in.Len()
		if keep > l.remaining {
			keep = l.remaining
		}
		l.remaining -= keep
		if l.remaining > 0 {
			// Mid-stream: a zero-copy prefix view of the input batch.
			if in.Sel != nil {
				l.out.Alias(in, in.Sel[:keep])
			} else {
				for i := len(l.identSel); i < keep; i++ {
					l.identSel = append(l.identSel, int32(i))
				}
				l.out.Alias(in, l.identSel[:keep])
			}
			return &l.out, nil
		}
		// Limit reached: copy the final rows out of the input's reusable
		// batch, then drain the rest of the input so its full cost lands
		// inside this query.
		l.final.Reset()
		l.final.AppendBatch(in, keep)
		for {
			rest, err := l.input.Next(ctx)
			if err != nil {
				return nil, err
			}
			if rest == nil {
				break
			}
		}
		l.done = true
		return l.final, nil
	}
}

func (l *limitOp) Close(ctx *Ctx) error {
	l.final = nil
	return l.input.Close(ctx)
}
