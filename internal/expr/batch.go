package expr

import (
	"fmt"
	"sync"
)

// DefaultBatchCapacity is the default number of rows one execution batch
// targets. It is large enough to amortize per-batch bookkeeping (cost
// flushes, virtual dispatch into operators) over many tuples while keeping
// a batch of typical TPC-H rows within cache-friendly bounds.
const DefaultBatchCapacity = 1024

// Batch is a chunk of tuples flowing between operators in the vectorized
// executor, laid out column-major: Cols holds N physical rows as one
// ColVec per column, and Sel — when non-nil — is a selection vector of
// physical row indices, in ascending order, naming the rows that are
// logically present. Filters select by writing Sel instead of copying
// rows; downstream operators iterate logical rows via Len/RowIdx.
//
// A batch handed out by an operator's Next is valid only until the
// following Next call and is read-only to consumers: Cols may alias
// storage-owned page vectors, so consumers must never mutate or Reset a
// batch they did not build. Values gathered out of a batch are immutable
// and may be retained.
type Batch struct {
	Cols []ColVec
	Sel  []int32
	N    int
}

// NewBatch returns an empty owned batch with width columns.
func NewBatch(width int) *Batch {
	return &Batch{Cols: make([]ColVec, width)}
}

// Len returns the number of logical rows: the selection's length when one
// is present, the physical row count otherwise.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowIdx maps logical row li to its physical index in Cols.
func (b *Batch) RowIdx(li int) int {
	if b.Sel != nil {
		return int(b.Sel[li])
	}
	return li
}

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// SetWidth makes an owned batch width columns wide, keeping the vectors,
// and their payload capacity, that it holds: a batch recycled for another
// shape reuses what it grew for the last. The vectors it gains may hold
// stale elements; Reset the batch, or each vector, before filling it.
func (b *Batch) SetWidth(width int) {
	if width > cap(b.Cols) {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]ColVec, width-cap(b.Cols))...)
	}
	b.Cols = b.Cols[:width]
}

// Reset empties an owned batch, keeping column capacity. It must not be
// called on view batches whose Cols alias another owner's vectors.
func (b *Batch) Reset() {
	for i := range b.Cols {
		b.Cols[i].Reset()
	}
	b.Sel = nil
	b.N = 0
}

// Alias turns b into a zero-copy view of src's physical rows with the
// given selection: Cols shares src's vectors, so b must never be mutated
// while the view is live.
func (b *Batch) Alias(src *Batch, sel []int32) {
	b.Cols = src.Cols
	b.N = src.N
	b.Sel = sel
}

// AppendRow appends one tuple to an owned batch.
func (b *Batch) AppendRow(r Row) {
	for i := range b.Cols {
		b.Cols[i].Append(r[i])
	}
	b.N++
}

// AppendBatch appends the first limit logical rows of src to an owned
// batch, column by column.
func (b *Batch) AppendBatch(src *Batch, limit int) {
	if src.Sel == nil && limit < src.N {
		// A prefix of a dense batch (a LIMIT's last batch) has no selection
		// to gather through.
		for li := 0; li < limit; li++ {
			for c := range b.Cols {
				b.Cols[c].Append(src.Cols[c].Get(li))
			}
		}
		b.N += limit
		return
	}
	var sel []int32
	if src.Sel != nil {
		sel = src.Sel[:limit]
	}
	for c := range b.Cols {
		b.Cols[c].AppendFrom(&src.Cols[c], sel)
	}
	b.N += limit
}

// gatherInto fills dst with physical row i's values. dst must have one
// slot per column; it is returned for convenience.
func (b *Batch) gatherInto(dst Row, i int) Row {
	for c := range b.Cols {
		dst[c] = b.Cols[c].Get(i)
	}
	return dst
}

// AppendRowsTo materializes every logical row into dst and returns the
// extended slice — the re-rowification the engine performs at the client
// edge. All rows share one fresh backing allocation; they are independent
// of the batch and may be retained.
func (b *Batch) AppendRowsTo(dst []Row) []Row {
	n, w := b.Len(), len(b.Cols)
	backing := make([]Value, n*w)
	for li := 0; li < n; li++ {
		row := backing[li*w : (li+1)*w : (li+1)*w]
		b.gatherInto(row, b.RowIdx(li))
		dst = append(dst, row)
	}
	return dst
}

// Rows materializes every logical row with fresh backing.
func (b *Batch) Rows() []Row { return b.AppendRowsTo(nil) }

// RowBytes estimates the storage footprint of physical row i — Row.Bytes
// of the row it holds — from the payloads, materializing no value.
func (b *Batch) RowBytes(i int) int64 {
	n := int64(4) // header
	for c := range b.Cols {
		v := &b.Cols[c]
		switch {
		case v.IsNull(i):
			n++
		case v.Kind != KindString:
			n += 8
		case v.Dict != nil:
			n += int64(len(v.Dict.words[v.Codes[i]])) + 2
		default:
			n += int64(len(v.S[i])) + 2
		}
	}
	return n
}

// Bytes estimates the storage footprint of every logical row — the sum of
// Row.Bytes over the materialized tuples — column by column from the typed
// payloads, materializing no value.
func (b *Batch) Bytes() int64 {
	n := b.Len()
	total := 4 * int64(n) // row headers
	for c := range b.Cols {
		total += b.Cols[c].bytes(b.Sel, n)
	}
	return total
}

// scratch is the working memory of one FilterBatch or EvalBatch call: the
// intermediate selections a composite predicate's cascade needs, the
// temporary float vectors of an arithmetic tree, and the gather row of the
// per-leaf interpreter fallback. Calls take one from scratchPool and return
// it, so a steady stream of pages — on any goroutine — reuses the same
// buffers and allocates nothing.
type scratch struct {
	sels   [][]int32   // stack of intermediate selections; sels[:nSel] are live
	floats [][]float64 // stack of temporary float vectors; floats[:nFloat] are live
	nSel   int
	nFloat int
	row    Row    // fallback gather row, one slot per batch column
	cols   []int  // columns the current fallback expression references
	keep   []bool // filterInHashCol: set membership per dictionary word
	nulls  []bool // evalArith: the result's NULL bitmap once one is needed
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pushSel returns an empty, non-nil selection buffer with room for n rows,
// live until the matching popSel.
func (sc *scratch) pushSel(n int) []int32 {
	if sc.nSel == len(sc.sels) {
		sc.sels = append(sc.sels, nil)
	}
	if b := sc.sels[sc.nSel]; b == nil || cap(b) < n {
		sc.sels[sc.nSel] = make([]int32, 0, max(n, 1)) // non-nil even for n = 0
	}
	sc.nSel++
	return sc.sels[sc.nSel-1]
}

func (sc *scratch) popSel() { sc.nSel-- }

// pushFloats returns a float buffer of length n with undefined contents,
// live until the matching popFloats.
func (sc *scratch) pushFloats(n int) []float64 {
	if sc.nFloat == len(sc.floats) {
		sc.floats = append(sc.floats, nil)
	}
	if cap(sc.floats[sc.nFloat]) < n {
		sc.floats[sc.nFloat] = make([]float64, n)
	}
	sc.nFloat++
	return sc.floats[sc.nFloat-1][:n]
}

func (sc *scratch) popFloats() { sc.nFloat-- }

// candLen is the number of candidate rows a nil-or-explicit candidate
// selection names: nil means every physical row of in.
func candLen(in *Batch, cand []int32) int {
	if cand == nil {
		return in.N
	}
	return len(cand)
}

// FilterBatch evaluates pred over every logical row of in and returns the
// surviving physical indices in sel's storage — a selection vector the
// caller threads back into a batch, so filtering never copies rows. sel is
// reallocated only when it cannot hold in.Len() indices; it may be in.Sel
// itself, which then narrows in place.
//
// Whole predicate trees evaluate as cascades of selection vectors: an AND
// runs each term over the survivors of the terms before it, an OR over the
// rows every earlier term rejected, a NOT flips which side of its operand
// is kept, and the column-vs-constant leaves (Cmp, Between, InHash) and
// numeric column-vs-column comparisons run typed loops over the payload
// slices, indexed through the candidate selection. That is short-circuit
// evaluation batch-wise: each term charges for exactly the rows per-row
// Eval would have reached it with, so charged cycles are identical to
// evaluating pred row by row (every charge is a whole number of cycles, so
// the sums are exact). Leaves no kernel covers are interpreted per
// candidate row (see filterFallback).
//
// The returned selection is always non-nil: an empty selection means "no
// rows", whereas a nil Batch.Sel means "all rows".
func FilterBatch(pred Expr, in *Batch, sel []int32, cost *Cost) []int32 {
	if n := in.Len(); sel == nil || cap(sel) < n {
		sel = make([]int32, 0, n)
	}
	sc := scratchPool.Get().(*scratch)
	sel = sc.filter(pred, in, in.Sel, sel[:0], true, cost)
	scratchPool.Put(sc)
	return sel
}

// filter writes to out the candidates (cand; nil = every physical row) on
// which pred's truthiness equals want, in ascending order. out is empty
// with capacity for every candidate and may share cand's backing array:
// every step only ever compacts, so narrowing in place is safe. A leaf a
// typed kernel covers is billed rows × EvalCycles(pred), what Eval meters
// per row on it.
func (sc *scratch) filter(pred Expr, in *Batch, cand, out []int32, want bool, cost *Cost) []int32 {
	switch p := pred.(type) {
	case And:
		return sc.cascade(p.Terms, true, in, cand, out, want, cost)
	case Or:
		return sc.cascade(p.Terms, false, in, cand, out, want, cost)
	case Not:
		cost.Add(float64(candLen(in, cand)) * CyclesLogic)
		return sc.filter(p.E, in, cand, out, !want, cost)
	}
	n := candLen(in, cand)
	if res, ok := sc.filterKernel(pred, in, cand, out, want); ok {
		cost.Add(float64(n) * EvalCycles(pred))
		return res
	}
	return sc.filterFallback(pred, in, cand, out, want, cost)
}

// filterKernel runs the typed loop for a column-against-constant leaf —
// Cmp, Between or InHash over a column — or a comparison of two columns,
// charging nothing. It reports false for the shapes, vectors and constants
// the loops do not cover.
func (sc *scratch) filterKernel(pred Expr, in *Batch, cand, out []int32, want bool) ([]int32, bool) {
	switch p := pred.(type) {
	case Cmp:
		col, ok := p.L.(Col)
		if !ok {
			break
		}
		switch r := p.R.(type) {
		case Const:
			return filterCmpColConst(p.Op, &in.Cols[col.Idx], r.V, cand, out, want)
		case Col:
			return filterCmpColCol(p.Op, &in.Cols[col.Idx], &in.Cols[r.Idx], cand, out, want)
		}
	case Between:
		if col, ok := p.E.(Col); ok {
			return sc.filterBetweenCol(&in.Cols[col.Idx], p.Lo, p.Hi, in.N, cand, out, want)
		}
	case *InHash:
		if col, ok := p.E.(Col); ok {
			return sc.filterInHashCol(&in.Cols[col.Idx], p.Set, candLen(in, cand), cand, out, want), true
		}
	}
	return nil, false
}

// cascade evaluates an And (pass=true) or an Or (pass=false). The rows that
// get through the whole short-circuit chain are the And's accepts or the
// Or's rejects; when the caller wants the other side, the chain runs in a
// scratch buffer and the result is its complement within cand.
func (sc *scratch) cascade(terms []Expr, pass bool, in *Batch, cand, out []int32, want bool, cost *Cost) []int32 {
	if pass == want {
		return sc.chain(terms, pass, in, cand, out, cost)
	}
	through := sc.chain(terms, pass, in, cand, sc.pushSel(in.N), cost)
	out = subtractSel(cand, in.N, through, out)
	sc.popSel()
	return out
}

// chain writes to out the candidates on which every term's truthiness is
// pass — a row moves on to the next term while terms hold (And) or while
// they fail (Or). Each term runs over the rows that got through every
// earlier term, narrowing out in place, and is charged CyclesLogic plus its
// own cost for exactly those rows — what And.Eval / Or.Eval charge row by
// row.
func (sc *scratch) chain(terms []Expr, pass bool, in *Batch, cand, out []int32, cost *Cost) []int32 {
	cur, ran := cand, false
	for _, t := range terms {
		n := candLen(in, cur)
		if n == 0 {
			break
		}
		cost.Add(float64(n) * CyclesLogic)
		cur, ran = sc.filter(t, in, cur, out[:0], pass, cost), true
	}
	if !ran {
		return copyCand(cand, in.N, out)
	}
	return cur
}

// filterCmpColConst is the kernel for Cmp{Col, Const} over a NULL-free
// vector. With no NULLs in play a comparison is false exactly when the
// negated operator holds, so want=false runs the same loops.
func filterCmpColConst(op CmpOp, vec *ColVec, k Value, cand, out []int32, want bool) ([]int32, bool) {
	if !typedComparable(vec, k) {
		return nil, false
	}
	if !want {
		op = op.negate()
	}
	return selCmpColConst(op, vec, k, cand, out), true
}

// filterCmpColCol is the kernel for Cmp{Col, Col} over two numeric,
// NULL-free vectors — a join residual such as s_nationkey = c_nationkey —
// compared through float64 as Compare compares them. As for a constant,
// want=false runs the negated operator.
func filterCmpColCol(op CmpOp, l, r *ColVec, cand, out []int32, want bool) ([]int32, bool) {
	if l.Nulls != nil || r.Nulls != nil || !numericKind(l.Kind) || !numericKind(r.Kind) {
		return nil, false
	}
	if !want {
		op = op.negate()
	}
	lf, rf := l.Kind == KindFloat, r.Kind == KindFloat
	switch {
	case lf && rf:
		return selCmpCols(op, l.F, r.F, cand, out), true
	case lf:
		return selCmpCols(op, l.F, r.I, cand, out), true
	case rf:
		return selCmpCols(op, l.I, r.F, cand, out), true
	}
	return selCmpCols(op, l.I, r.I, cand, out), true
}

// typedComparable reports whether vec's payload can be compared with k by
// the typed loops: no NULLs, and both sides in the same Compare class
// (string, or numeric — see numericKind).
func typedComparable(vec *ColVec, k Value) bool {
	if vec.Nulls != nil {
		return false
	}
	if vec.Kind == KindString {
		return k.Kind == KindString
	}
	return numericKind(vec.Kind) && numericKind(k.Kind)
}

// selCmpColConst dispatches one typed comparison loop by payload
// representation. It charges nothing. Numeric comparisons go through
// float64 exactly as Compare does, so ordering (including 2⁵³-scale
// rounding) is identical; dictionary vectors compare codes (selCmpCodes).
func selCmpColConst(op CmpOp, vec *ColVec, k Value, cand, out []int32) []int32 {
	switch {
	case vec.Dict != nil:
		return selCmpCodes(op, vec.Codes, vec.Dict, k.S, cand, out)
	case vec.Kind == KindString:
		return selCmpOrd(op, vec.S, k.S, cand, out)
	case vec.Kind == KindFloat:
		return selCmpNum(op, vec.F, k.AsFloat(), cand, out)
	default:
		return selCmpNum(op, vec.I, k.AsFloat(), cand, out)
	}
}

// filterBetweenCol is the kernel for Between{Col}, the TPC-H date-range
// shape lo <= v < hi, as two typed comparison passes — the second over the
// first's survivors. n is the batch's physical row count.
func (sc *scratch) filterBetweenCol(vec *ColVec, lo, hi Value, n int, cand, out []int32, want bool) ([]int32, bool) {
	if !typedComparable(vec, lo) || !typedComparable(vec, hi) {
		return nil, false
	}
	if want {
		res := selCmpColConst(GE, vec, lo, cand, out)
		return selCmpColConst(LT, vec, hi, res, out), true
	}
	buf := sc.pushSel(n)
	res := selCmpColConst(GE, vec, lo, cand, buf)
	res = selCmpColConst(LT, vec, hi, res, buf)
	out = subtractSel(cand, n, res, out)
	sc.popSel()
	return out, true
}

// filterInHashCol is the kernel for InHash{Col}, the merged-QED hash-set
// membership shape. The probe itself dominates, so outside the dictionary
// case one loop over canonical element values serves every vector
// representation. Membership is Go map equality on canonical Values, so a
// NULL set element matches NULL rows. n is the candidate count.
func (sc *scratch) filterInHashCol(vec *ColVec, set map[Value]struct{}, n int, cand, out []int32, want bool) []int32 {
	out = out[:n]
	kept := 0
	if d := vec.Dict; d != nil {
		// Probe the set once per dictionary word, then test codes against
		// the resulting bitmap.
		if cap(sc.keep) < d.Len() {
			sc.keep = make([]bool, d.Len())
		}
		keep := sc.keep[:d.Len()]
		for c := range keep {
			_, keep[c] = set[Value{Kind: KindString, S: d.words[c]}]
		}
		_, nullIn := set[Value{}]
		for li := 0; li < n; li++ {
			i := li
			if cand != nil {
				i = int(cand[li])
			}
			hit := keep[vec.Codes[i]]
			if vec.Nulls != nil && vec.Nulls[i] {
				hit = nullIn
			}
			if hit == want {
				out[kept] = int32(i)
				kept++
			}
		}
		return out[:kept]
	}
	for li := 0; li < n; li++ {
		i := li
		if cand != nil {
			i = int(cand[li])
		}
		if _, hit := set[vec.Get(i)]; hit == want {
			out[kept] = int32(i)
			kept++
		}
	}
	return out[:kept]
}

// filterFallback interprets one leaf the kernels do not cover — string
// columns against each other, a comparison over arithmetic, NULL-bearing
// vectors — per candidate row: gather the columns the leaf references and
// Eval it, exactly the work a row-at-a-time engine does per tuple, charges
// included.
func (sc *scratch) filterFallback(pred Expr, in *Batch, cand, out []int32, want bool, cost *Cost) []int32 {
	sc.prepareGather(pred, in)
	n := candLen(in, cand)
	out = out[:n]
	kept := 0
	for li := 0; li < n; li++ {
		i := li
		if cand != nil {
			i = int(cand[li])
		}
		if pred.Eval(sc.gather(in, i), cost).Truthy() == want {
			out[kept] = int32(i)
			kept++
		}
	}
	return out[:kept]
}

// prepareGather sizes the gather row for in and records which columns e
// reads, so gather fills only those slots; the rest are never read by e.
func (sc *scratch) prepareGather(e Expr, in *Batch) {
	if cap(sc.row) < len(in.Cols) {
		sc.row = make(Row, len(in.Cols))
	}
	sc.row = sc.row[:len(in.Cols)]
	sc.cols = AppendCols(sc.cols[:0], e)
}

// gather returns the shared gather row holding physical row i's values in
// the prepared columns.
func (sc *scratch) gather(in *Batch, i int) Row {
	for _, c := range sc.cols {
		sc.row[c] = in.Cols[c].Get(i)
	}
	return sc.row
}

// EvalBatch evaluates e over every logical row of in, writing one value
// per row into dst (which is Reset first). Plain column references copy
// the source vector payload, literals replicate the constant, and
// arithmetic over numeric columns and constants runs typed float loops;
// these bill rows × EvalCycles(e). Anything else is interpreted per row.
// Cycle accounting is identical to row-at-a-time Eval.
func EvalBatch(e Expr, in *Batch, dst *ColVec, cost *Cost) {
	dst.Reset()
	n := in.Len()
	switch x := e.(type) {
	case Col:
		dst.AppendFrom(&in.Cols[x.Idx], in.Sel)
	case Const:
		for li := 0; li < n; li++ {
			dst.Append(x.V)
		}
	default:
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		if !arithTyped(e, in) {
			sc.prepareGather(e, in)
			for li := 0; li < n; li++ {
				dst.Append(e.Eval(sc.gather(in, in.RowIdx(li)), cost))
			}
			return
		}
		sc.evalArith(e, in, dst)
	}
	cost.Add(float64(n) * EvalCycles(e))
}

// arithTyped reports whether e is a tree of Arith nodes over numeric
// constants and numeric columns — what evalArith's float loops cover.
func arithTyped(e Expr, in *Batch) bool {
	switch e := e.(type) {
	case Arith:
		return arithTyped(e.L, in) && arithTyped(e.R, in)
	case Const:
		return numericKind(e.V.Kind)
	case Col:
		return numericKind(in.Cols[e.Idx].Kind)
	}
	return false
}

// evalArith evaluates an arithmetic tree accepted by arithTyped into dst
// as a float vector. NULL is absorbing in Arith.Eval — a NULL operand or a
// zero divisor makes the node, and so every ancestor, NULL — so one bitmap
// shared by the whole tree collects the NULL positions, and the float
// payload under them is don't-care until it is zeroed at the end.
func (sc *scratch) evalArith(e Expr, in *Batch, dst *ColVec) {
	n := in.Len()
	if n == 0 {
		return
	}
	if cap(dst.F) < n {
		dst.F = make([]float64, n)
	}
	dst.F = dst.F[:n]
	dst.n = n
	sc.arithInto(e, in, dst.F)
	if sc.nulls == nil {
		dst.Kind = KindFloat
		return
	}
	nulls := sc.nulls
	dst.Nulls, sc.nulls = nulls, nil
	live := 0
	for i, null := range nulls {
		if null {
			dst.F[i] = 0
		} else {
			live++
		}
	}
	if live == 0 {
		dst.F = dst.F[:0] // an all-NULL vector has no kind and no payload
		return
	}
	dst.Kind = KindFloat
}

// arithInto computes e over in's logical rows into buf, one typed loop per
// node; it charges nothing (EvalBatch bills the whole tree). A node's
// result lands in the buffer its left operand was computed into; only right
// operands take a temporary. Every node's result is stored — rounded to float64 —
// before its parent reads it, so no multiply-add is ever fused and each
// element carries exactly the bits Arith.Eval produces.
func (sc *scratch) arithInto(e Expr, in *Batch, buf []float64) {
	switch e := e.(type) {
	case Const:
		k := e.V.AsFloat()
		for i := range buf {
			buf[i] = k
		}
	case Col:
		vec := &in.Cols[e.Idx]
		if vec.Kind == KindFloat {
			gatherFloats(buf, vec.F, in.Sel)
		} else {
			gatherFloats(buf, vec.I, in.Sel)
		}
		if vec.Nulls != nil {
			for li := range buf {
				if vec.Nulls[in.RowIdx(li)] {
					sc.markNull(len(buf), li)
				}
			}
		}
	case Arith:
		sc.arithInto(e.L, in, buf)
		r := sc.pushFloats(len(buf))
		sc.arithInto(e.R, in, r)
		switch e.Op {
		case Add:
			for i, y := range r {
				buf[i] = float64(buf[i] + y)
			}
		case Sub:
			for i, y := range r {
				buf[i] = float64(buf[i] - y)
			}
		case Mul:
			for i, y := range r {
				buf[i] = float64(buf[i] * y)
			}
		case Div:
			for i, y := range r {
				if y == 0 {
					sc.markNull(len(buf), i)
				} else {
					buf[i] = float64(buf[i] / y)
				}
			}
		default:
			panic(fmt.Sprintf("expr: unknown ArithOp %d", int(e.Op)))
		}
		sc.popFloats()
	}
}

// markNull records logical row li of evalArith's n-row result as NULL,
// allocating the bitmap on first use: evalArith hands it to the destination
// vector as its Nulls, so it is never reused.
func (sc *scratch) markNull(n, li int) {
	if sc.nulls == nil {
		sc.nulls = make([]bool, n)
	}
	sc.nulls[li] = true
}
