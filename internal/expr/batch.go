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

// scratch is the working memory of one EvalBatch call: the temporary
// float vectors of an arithmetic tree and the gather row of the per-row
// fallback. Calls take one from scratchPool and return it, so a steady
// stream of pages — on any goroutine — reuses the same buffers and
// allocates nothing.
type scratch struct {
	floats [][]float64 // stack of temporary float vectors; floats[:nFloat] are live
	nFloat int
	row    Row    // fallback gather row, one slot per batch column
	cols   []int  // columns the fallback expression references
	nulls  []bool // evalArith: the result's NULL bitmap once one is needed
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

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

// pooledFilter is what one FilterBatch call compiles its predicate into and
// runs it with, and what CompileFilter compiles in before copying the
// program out.
type pooledFilter struct {
	f  Filter
	sc FilterScratch
}

var filterPool = sync.Pool{New: func() any { return new(pooledFilter) }}

// FilterBatch evaluates pred over every logical row of in and returns the
// surviving physical indices in sel's storage, billing cost what per-row
// Eval would — Filter.Select for a predicate used once. It compiles pred
// into pooled storage and runs it there, so a warm call allocates nothing;
// a predicate run over many batches is compiled once with CompileFilter
// instead.
func FilterBatch(pred Expr, in *Batch, sel []int32, cost *Cost) []int32 {
	p := filterPool.Get().(*pooledFilter)
	p.f.compile(pred)
	sel = p.f.Select(in, sel, &p.sc, cost)
	filterPool.Put(p)
	return sel
}

// sizeRow returns row resized to width slots, reallocated only when too
// small.
func sizeRow(row Row, width int) Row {
	if cap(row) < width {
		return make(Row, width)
	}
	return row[:width]
}

// gatherCols fills row's slots cols with physical row i's values and
// returns it; the other slots are left as they are, for an expression that
// reads only cols.
func gatherCols(row Row, in *Batch, cols []int, i int) Row {
	for _, c := range cols {
		row[c] = in.Cols[c].Get(i)
	}
	return row
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
			sc.row, sc.cols = sizeRow(sc.row, len(in.Cols)), AppendCols(sc.cols[:0], e)
			for li := 0; li < n; li++ {
				dst.Append(e.Eval(gatherCols(sc.row, in, sc.cols, in.RowIdx(li)), cost))
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
