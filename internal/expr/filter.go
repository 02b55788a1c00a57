package expr

import (
	"math"
	"slices"
)

// Filter is a predicate compiled once for batch evaluation: the tree
// flattened into steps, each holding what a page needs of its node — the
// column it tests, its constant already converted for every payload
// representation it can meet, and its per-row price (EvalCycles, taken at
// compile time). Running a page is then a walk over the steps with no type
// switch over Expr nodes, no EvalCycles recursion and no constant
// conversion. A compiled Filter is read-only: any number of goroutines may
// run it at once, each with a FilterScratch of its own.
//
// Evaluation is a cascade of selection vectors: an And runs each term over
// the survivors of the terms before it, an Or over the rows every earlier
// term rejected, a Not flips which side of its operand is kept. A step that
// needs the other side of such a chain takes its complement within the
// candidates through FilterScratch's mark array. Every step bills the rows
// that reach it × its price, so the cycles charged are those of evaluating
// the predicate row by row with short-circuit Eval; every charge is a whole
// number of cycles, so the sums are exact.
//
// Which loop runs a leaf is still decided per page, from the vector in
// hand: a NULL-bearing vector, or one of another Compare class than the
// constant, has its leaf interpreted per candidate row (FilterScratch.rows),
// as does a leaf no typed loop covers, such as a comparison over
// arithmetic.
//
// The same steps decide zone-map pruning (Prunes, in zone.go): whether a
// page's zones rule out every row, from the constants compiled here.
type Filter struct {
	pred Expr
	// steps[0] is the root; the operands of an And, Or or Not step are
	// consecutive steps of their own.
	steps []step
	cmps  []cmpK // the comparisons of leaf steps
}

// stepOp is what a step runs.
type stepOp uint8

const (
	opRows     stepOp = iota // a leaf no typed loop covers: per-row Eval
	opAnd                    // steps[lo:hi]: the terms
	opOr                     // steps[lo:hi]: the terms
	opNot                    // steps[lo]: the operand
	opCmpConst               // Cmp{Col, Const}
	opCmpCols                // Cmp{Col, Col}
	opBetween                // Between{Col}
	opInHash                 // InHash{Col}
)

// step is one node of a compiled Filter.
type step struct {
	op   stepOp
	col  int // the tested column; Cmp{Col, Col}: the left one
	col2 int // Cmp{Col, Col}: the right column
	// And, Or and Not: the operands, steps[lo:hi].
	lo, hi int32
	// Cmp{Col, Const}: cmps[cmp]. Between: cmps[cmp] is >= Lo,
	// cmps[cmp+1] is < Hi. Cmp{Col, Col}: cmps[cmp].op alone.
	cmp int32
	// A leaf: what a typed loop bills per candidate, EvalCycles of e.
	cycles float64
	set    map[Value]struct{} // InHash
	e      Expr               // a leaf: the node, for the per-row fallback
}

// cmpK is a comparison of a column with a constant, the constant converted
// once for every payload the column can hand it.
type cmpK struct {
	op    CmpOp
	class kclass
	f     float64   // a numeric constant through float64, as Compare takes it
	s     string    // a string constant
	ints  [2]intCmp // over an I payload: [1] selects where op holds, [0] where it fails
}

// kclass is a constant's Compare class: which payloads a typed loop can
// compare it with.
type kclass uint8

const (
	classNone    kclass = iota // NULL: no typed loop
	classNumeric               // against Bool, Int, Date and Float payloads
	classString                // against strings and dictionary codes
)

// intCmp is a comparison with a numeric constant k run over an I payload
// (Bool, Int, Date) in the integer domain: how says which loop decides it.
type intCmp struct {
	how intHow
	op  CmpOp
	k   int64
}

type intHow uint8

const (
	viaFloat intHow = iota // k is NaN or |k| >= 2⁵³: compare through float64
	viaInt                 // x op k over int64
	noRow                  // no integer stands in the relation
	everyRow               // every integer does
)

// newCmpK converts constant k for comparisons x op k.
func newCmpK(op CmpOp, k Value) cmpK {
	c := cmpK{op: op}
	switch {
	case k.Kind == KindString:
		c.class, c.s = classString, k.S
	case numericKind(k.Kind):
		c.class, c.f = classNumeric, k.AsFloat()
		c.ints = [2]intCmp{intDomain(op.negate(), c.f), intDomain(op, c.f)}
	}
	return c
}

// intDomain rewrites x op k, for an integer x compared through float64 as
// Compare compares it, as a comparison of int64s. Below 2⁵³ in magnitude a
// float64 holds every integer exactly and rounding float64(x) is monotone,
// so an integral k is the integer it holds, and a fractional k splits the
// integers at ⌊k⌋: x < k and x <= k are x <= ⌊k⌋, x > k and x >= k are
// x > ⌊k⌋, x = k holds for none and x <> k for all. A NaN k, and one of
// 2⁵³ or more in magnitude, where distinct integers share a float64, stay
// in the float domain.
func intDomain(op CmpOp, k float64) intCmp {
	if k != k || math.Abs(k) >= 1<<53 {
		return intCmp{how: viaFloat}
	}
	fl := math.Floor(k)
	if fl == k {
		return intCmp{how: viaInt, op: op, k: int64(k)}
	}
	switch op {
	case EQ:
		return intCmp{how: noRow}
	case NE:
		return intCmp{how: everyRow}
	case LT, LE:
		return intCmp{how: viaInt, op: LE, k: int64(fl)}
	default: // GT, GE
		return intCmp{how: viaInt, op: GT, k: int64(fl)}
	}
}

// fits reports whether a typed loop can decide the comparison over every
// element of vec: no NULLs, and the constant of vec's Compare class.
func (c *cmpK) fits(vec *ColVec) bool {
	if vec.Nulls != nil {
		return false
	}
	if vec.Kind == KindString {
		return c.class == classString
	}
	return c.class == classNumeric && numericKind(vec.Kind)
}

// sel writes to out the candidates whose element of vec stands (want) or
// does not stand (!want) in relation op to the constant. vec must fit. With
// no NULLs in play a comparison fails exactly when the negated one holds.
func (c *cmpK) sel(vec *ColVec, want bool, cand, out []int32) []int32 {
	op := c.op
	if !want {
		op = op.negate()
	}
	switch {
	case vec.Dict != nil:
		return selCmpCodes(op, vec.Codes, vec.Dict, c.s, cand, out)
	case vec.Kind == KindString:
		return selCmpOrd(op, vec.S, c.s, cand, out)
	case vec.Kind == KindFloat:
		return selCmpNum(op, vec.F, c.f, cand, out)
	}
	ic := c.ints[bit(want)]
	switch ic.how {
	case viaInt:
		return selCmpOrd(ic.op, vec.I, ic.k, cand, out)
	case noRow:
		return out[:0]
	case everyRow:
		return copyCand(cand, len(vec.I), out)
	}
	return selCmpNum(op, vec.I, c.f, cand, out)
}

// CompileFilter compiles pred for batch evaluation; a nil pred compiles to
// a nil Filter.
func CompileFilter(pred Expr) *Filter {
	if pred == nil {
		return nil
	}
	// Compiling grows the step and comparison slices term by term; doing
	// it in pooled storage and copying the result out allocates the
	// program once, at its size.
	p := filterPool.Get().(*pooledFilter)
	p.f.compile(pred)
	f := &Filter{pred: pred, steps: slices.Clone(p.f.steps), cmps: slices.Clone(p.f.cmps)}
	filterPool.Put(p)
	return f
}

// Expr returns the predicate f was compiled from.
func (f *Filter) Expr() Expr { return f.pred }

// compile makes f pred's program, reusing f's storage: compiling into a
// warm Filter allocates nothing.
func (f *Filter) compile(pred Expr) {
	f.pred = pred
	f.steps, f.cmps = append(f.steps[:0], step{}), f.cmps[:0]
	f.fill(0, pred)
}

// fill compiles e into step i, appending its operands' steps.
func (f *Filter) fill(i int32, e Expr) {
	var s step
	switch n := e.(type) {
	case And:
		s.op = opAnd
		s.lo, s.hi = f.operands(n.Terms...)
	case Or:
		s.op = opOr
		s.lo, s.hi = f.operands(n.Terms...)
	case Not:
		s.op = opNot
		s.lo, s.hi = f.operands(n.E)
	default:
		s = f.leaf(e)
	}
	f.steps[i] = s
}

// operands compiles terms into consecutive steps and returns their range.
func (f *Filter) operands(terms ...Expr) (lo, hi int32) {
	lo = int32(len(f.steps))
	for range terms {
		f.steps = append(f.steps, step{})
	}
	for j, t := range terms {
		f.fill(lo+int32(j), t)
	}
	return lo, lo + int32(len(terms))
}

// leaf compiles a leaf: a typed-loop step for the column-against-constant
// and column-against-column shapes, a per-row step for anything else. A
// comparison with its constant first compiles as the mirrored one, column
// first: it holds on the same rows and Eval bills both alike.
func (f *Filter) leaf(e Expr) step {
	if n, ok := e.(Cmp); ok {
		if k, ok := n.L.(Const); ok {
			if c, ok := n.R.(Col); ok {
				e = Cmp{Op: n.Op.Flip(), L: c, R: k}
			}
		}
	}
	s := step{op: opRows, e: e, cycles: EvalCycles(e), cmp: int32(len(f.cmps))}
	switch n := e.(type) {
	case Cmp:
		l, ok := n.L.(Col)
		if !ok {
			break
		}
		switch r := n.R.(type) {
		case Const:
			s.op, s.col = opCmpConst, l.Idx
			f.cmps = append(f.cmps, newCmpK(n.Op, r.V))
		case Col:
			s.op, s.col, s.col2 = opCmpCols, l.Idx, r.Idx
			f.cmps = append(f.cmps, cmpK{op: n.Op})
		}
	case Between:
		if c, ok := n.E.(Col); ok {
			s.op, s.col = opBetween, c.Idx
			f.cmps = append(f.cmps, newCmpK(GE, n.Lo), newCmpK(LT, n.Hi))
		}
	case *InHash:
		if c, ok := n.E.(Col); ok {
			s.op, s.col, s.set = opInHash, c.Idx, n.Set
		}
	}
	return s
}

// FilterScratch is the working memory one runner of compiled Filters reuses
// from page to page: intermediate selections, the mark array complements
// are taken through, and the buffers of the per-page loops. The zero value
// is ready to use. A warm scratch makes running a Filter allocate nothing.
type FilterScratch struct {
	sels [][]int32 // stack of intermediate selections; sels[:nSel] are live
	nSel int
	// mark is all zero between uses: complement sets the entries it needs
	// and clears every one it read.
	mark []uint8
	keep []bool // InHash over a dictionary: membership per word
	row  Row    // the per-row fallback's gather row
	cols []int  // ... and the columns it fills
}

// pushSel returns an empty, non-nil selection buffer with room for n rows,
// live until the matching popSel.
func (sc *FilterScratch) pushSel(n int) []int32 {
	if sc.nSel == len(sc.sels) {
		sc.sels = append(sc.sels, nil)
	}
	if b := sc.sels[sc.nSel]; b == nil || cap(b) < n {
		sc.sels[sc.nSel] = make([]int32, 0, max(n, 1)) // non-nil even for n = 0
	}
	sc.nSel++
	return sc.sels[sc.nSel-1]
}

func (sc *FilterScratch) popSel() { sc.nSel-- }

// candLen is the number of candidate rows a nil-or-explicit candidate
// selection names: nil means every physical row of in.
func candLen(in *Batch, cand []int32) int {
	if cand == nil {
		return in.N
	}
	return len(cand)
}

// Select returns the physical indices of the logical rows of in on which
// f's predicate holds, in sel's storage — a selection vector the caller
// threads back into a batch, so filtering never copies rows — and bills
// cost what evaluating the predicate row by row would. sel is reallocated
// only when it cannot hold in.Len() indices; it may be in.Sel itself, which
// then narrows in place. The returned selection is always non-nil: an empty
// selection means "no rows", whereas a nil Batch.Sel means "all rows".
func (f *Filter) Select(in *Batch, sel []int32, sc *FilterScratch, cost *Cost) []int32 {
	if n := in.Len(); sel == nil || cap(sel) < n {
		sel = make([]int32, 0, n)
	}
	return f.run(0, in, in.Sel, sel[:0], true, sc, cost)
}

// run writes to out the candidates (cand; nil = every physical row) on
// which step i's truthiness equals want, in ascending order. out is empty
// with capacity for every candidate and may share cand's backing array:
// every step only ever compacts, so narrowing in place is safe.
func (f *Filter) run(i int32, in *Batch, cand, out []int32, want bool, sc *FilterScratch, cost *Cost) []int32 {
	s := &f.steps[i]
	switch s.op {
	case opAnd:
		return f.cascade(s, true, in, cand, out, want, sc, cost)
	case opOr:
		return f.cascade(s, false, in, cand, out, want, sc, cost)
	case opNot:
		cost.Add(float64(candLen(in, cand)) * CyclesLogic)
		return f.run(s.lo, in, cand, out, !want, sc, cost)
	}
	n := candLen(in, cand)
	if res, ok := f.kernel(s, in, cand, out, want, sc); ok {
		cost.Add(float64(n) * s.cycles)
		return res
	}
	return sc.rows(s.e, in, cand, out, want, cost)
}

// kernel runs a leaf's typed loop, charging nothing. It reports false for
// a per-row leaf, and for vectors its loop cannot decide.
func (f *Filter) kernel(s *step, in *Batch, cand, out []int32, want bool, sc *FilterScratch) ([]int32, bool) {
	switch s.op {
	case opCmpConst:
		vec, c := &in.Cols[s.col], &f.cmps[s.cmp]
		if !c.fits(vec) {
			return nil, false
		}
		return c.sel(vec, want, cand, out), true
	case opCmpCols:
		return selCmpColCol(f.cmps[s.cmp].op, &in.Cols[s.col], &in.Cols[s.col2], cand, out, want)
	case opBetween:
		vec, lo, hi := &in.Cols[s.col], &f.cmps[s.cmp], &f.cmps[s.cmp+1]
		if !lo.fits(vec) || !hi.fits(vec) {
			return nil, false
		}
		if want {
			return hi.sel(vec, true, lo.sel(vec, true, cand, out), out), true
		}
		through := lo.sel(vec, true, cand, sc.pushSel(in.N))
		through = hi.sel(vec, true, through, through)
		out = sc.complement(cand, in.N, through, out)
		sc.popSel()
		return out, true
	case opInHash:
		return sc.inHash(&in.Cols[s.col], s.set, candLen(in, cand), cand, out, want), true
	}
	return nil, false
}

// cascade evaluates an And (pass=true) or an Or (pass=false). The rows that
// get through the whole short-circuit chain are the And's accepts or the
// Or's rejects; when the caller wants the other side, the chain runs in a
// scratch buffer and the result is its complement within cand.
func (f *Filter) cascade(s *step, pass bool, in *Batch, cand, out []int32, want bool, sc *FilterScratch, cost *Cost) []int32 {
	if pass == want {
		return f.chain(s, pass, in, cand, out, sc, cost)
	}
	through := f.chain(s, pass, in, cand, sc.pushSel(in.N), sc, cost)
	out = sc.complement(cand, in.N, through, out)
	sc.popSel()
	return out
}

// chain writes to out the candidates on which every term's truthiness is
// pass — a row moves on to the next term while terms hold (And) or while
// they fail (Or). Each term runs over the rows that got through every
// earlier term, narrowing out in place, and is charged CyclesLogic plus its
// own cost for exactly those rows — what And.Eval / Or.Eval charge row by
// row.
func (f *Filter) chain(s *step, pass bool, in *Batch, cand, out []int32, sc *FilterScratch, cost *Cost) []int32 {
	cur, ran := cand, false
	for k := s.lo; k < s.hi; k++ {
		n := candLen(in, cur)
		if n == 0 {
			break
		}
		cost.Add(float64(n) * CyclesLogic)
		cur, ran = f.run(k, in, cur, out[:0], pass, sc, cost), true
	}
	if !ran {
		return copyCand(cand, in.N, out)
	}
	return cur
}

// complement writes to out the candidates (cand, or 0..n-1 when cand is
// nil) that are not in drop, an ascending subset of the candidates held in
// storage of its own: drop's rows are marked, and one branch-free pass over
// the candidates keeps the unmarked ones, clearing each mark it reads — so
// the mark array is all zero again when it returns.
func (sc *FilterScratch) complement(cand []int32, n int, drop, out []int32) []int32 {
	if cap(sc.mark) < n {
		sc.mark = make([]uint8, n)
	}
	mark := sc.mark[:n]
	for _, i := range drop {
		mark[i] = 1
	}
	kept := 0
	if cand == nil {
		out = out[:n]
		for i := range mark {
			out[kept] = int32(i)
			kept += int(1 - mark[i])
			mark[i] = 0
		}
		return out[:kept]
	}
	out = out[:len(cand)]
	for _, i := range cand {
		out[kept] = i
		kept += int(1 - mark[i])
		mark[i] = 0
	}
	return out[:kept]
}

// inHash is the loop for InHash{Col}, the merged-QED hash-set membership
// shape. The probe itself dominates, so outside the dictionary case one
// loop over canonical element values serves every vector representation.
// Membership is Go map equality on canonical Values, so a NULL set element
// matches NULL rows. n is the candidate count.
func (sc *FilterScratch) inHash(vec *ColVec, set map[Value]struct{}, n int, cand, out []int32, want bool) []int32 {
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

// rows interprets leaf e per candidate row: gather the columns it reads and
// Eval it, exactly the work a row-at-a-time engine does per tuple, charges
// included. It is how a leaf runs when no typed loop covers it — string
// columns against each other, a comparison over arithmetic, NULL-bearing
// vectors.
func (sc *FilterScratch) rows(e Expr, in *Batch, cand, out []int32, want bool, cost *Cost) []int32 {
	sc.row, sc.cols = sizeRow(sc.row, len(in.Cols)), AppendCols(sc.cols[:0], e)
	n := candLen(in, cand)
	out = out[:n]
	kept := 0
	for li := 0; li < n; li++ {
		i := li
		if cand != nil {
			i = int(cand[li])
		}
		if e.Eval(gatherCols(sc.row, in, sc.cols, i), cost).Truthy() == want {
			out[kept] = int32(i)
			kept++
		}
	}
	return out[:kept]
}
