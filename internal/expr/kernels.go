package expr

// The typed selection and arithmetic loops behind compiled filters
// (filter.go), EvalBatch and SelectNotAfter. Nothing in this file charges:
// a Filter step bills the rows that reach it × the EvalCycles it took at
// compile time, and EvalBatch bills rows × EvalCycles of its tree; these
// loops only compute.
//
// Every selection loop takes the candidate rows as cand (nil = every
// element of the payload) and writes the physical indices that pass into
// out, which must have capacity for every candidate and may share cand's
// backing array: a loop reads candidate j before it writes slot n <= j, so
// narrowing in place is safe. Each loop stores the index unconditionally
// and advances the output cursor only when the test holds, which keeps the
// loop body free of a data-dependent branch around the store.

// negate returns the operator that holds exactly when op does not, for
// comparisons between non-NULL values.
func (o CmpOp) negate() CmpOp {
	return [...]CmpOp{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}[o]
}

// copyCand writes the candidate set itself — cand, or 0..n-1 when cand is
// nil — into out.
func copyCand(cand []int32, n int, out []int32) []int32 {
	if cand != nil {
		return append(out[:0], cand...)
	}
	out = out[:n]
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// numeric is the payload element type of the numeric Compare class: I for
// Bool/Int/Date, F for Float.
type numeric interface{ int64 | float64 }

// bit is 1 for true and 0 for false; the compiler makes it a flag set, not
// a branch.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selCmpNum selects the numeric payload elements standing in relation op
// to k. Comparisons go through float64 exactly as Compare does — equality
// is "neither less nor greater" — so the result is Compare's on every
// input, NaN included. EQ and NE combine the two tests as bits, since
// short-circuiting them would branch on the data.
func selCmpNum[T numeric](op CmpOp, vals []T, k float64, cand, out []int32) []int32 {
	n := 0
	if cand == nil {
		out = out[:len(vals)]
		switch op {
		case EQ:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				n += 1 - (bit(x < k) | bit(x > k))
			}
		case NE:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				n += bit(x < k) | bit(x > k)
			}
		case LT:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				if x < k {
					n++
				}
			}
		case LE:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				if !(x > k) {
					n++
				}
			}
		case GT:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				if x > k {
					n++
				}
			}
		case GE:
			for i, v := range vals {
				x := float64(v)
				out[n] = int32(i)
				if !(x < k) {
					n++
				}
			}
		}
		return out[:n]
	}
	out = out[:len(cand)]
	switch op {
	case EQ:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			n += 1 - (bit(x < k) | bit(x > k))
		}
	case NE:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			n += bit(x < k) | bit(x > k)
		}
	case LT:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			if x < k {
				n++
			}
		}
	case LE:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			if !(x > k) {
				n++
			}
		}
	case GT:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			if x > k {
				n++
			}
		}
	case GE:
		for _, i := range cand {
			x := float64(vals[i])
			out[n] = i
			if !(x < k) {
				n++
			}
		}
	}
	return out[:n]
}

// selCmpColCol is the loop for Cmp{Col, Col} over two numeric, NULL-free
// vectors — a join residual such as s_nationkey = c_nationkey — compared
// through float64 as Compare compares them; want=false runs the negated
// operator. It reports false for other vectors.
func selCmpColCol(op CmpOp, l, r *ColVec, cand, out []int32, want bool) ([]int32, bool) {
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

// cmpHolds[op] has bit r set when op holds for a comparison whose outcome
// is r: 0 neither less nor greater (equal, or a NaN on either side, which
// Compare ties), 1 less, 2 greater.
var cmpHolds = [...]uint8{EQ: 1, NE: 6, LT: 2, LE: 3, GT: 4, GE: 5}

// selCmpCols selects the candidates at which a's element stands in
// relation op to b's, two numeric payloads of one batch compared through
// float64 as Compare compares them. One branch-free loop serves every
// operator: the outcome indexes op's bits in cmpHolds.
func selCmpCols[A, B numeric](op CmpOp, a []A, b []B, cand, out []int32) []int32 {
	holds, n := cmpHolds[op], 0
	if cand == nil {
		out, b = out[:len(a)], b[:len(a)]
		for i, v := range a {
			x, y := float64(v), float64(b[i])
			out[n] = int32(i)
			n += int(holds >> (bit(x < y) | bit(x > y)<<1) & 1)
		}
		return out[:n]
	}
	out = out[:len(cand)]
	for _, i := range cand {
		x, y := float64(a[i]), float64(b[i])
		out[n] = i
		n += int(holds >> (bit(x < y) | bit(x > y)<<1) & 1)
	}
	return out[:n]
}

// selCmpOrd is selCmpNum over the payloads compared directly: strings,
// dictionary codes, and I payloads against an integer bound (intDomain).
func selCmpOrd[T string | int32 | int64](op CmpOp, vals []T, k T, cand, out []int32) []int32 {
	n := 0
	if cand == nil {
		out = out[:len(vals)]
		switch op {
		case EQ:
			for i, v := range vals {
				out[n] = int32(i)
				if v == k {
					n++
				}
			}
		case NE:
			for i, v := range vals {
				out[n] = int32(i)
				if v != k {
					n++
				}
			}
		case LT:
			for i, v := range vals {
				out[n] = int32(i)
				if v < k {
					n++
				}
			}
		case LE:
			for i, v := range vals {
				out[n] = int32(i)
				if v <= k {
					n++
				}
			}
		case GT:
			for i, v := range vals {
				out[n] = int32(i)
				if v > k {
					n++
				}
			}
		case GE:
			for i, v := range vals {
				out[n] = int32(i)
				if v >= k {
					n++
				}
			}
		}
		return out[:n]
	}
	out = out[:len(cand)]
	switch op {
	case EQ:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v == k {
				n++
			}
		}
	case NE:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v != k {
				n++
			}
		}
	case LT:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v < k {
				n++
			}
		}
	case LE:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v <= k {
				n++
			}
		}
	case GT:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v > k {
				n++
			}
		}
	case GE:
		for _, i := range cand {
			v := vals[i]
			out[n] = i
			if v >= k {
				n++
			}
		}
	}
	return out[:n]
}

// selCmpCodes is selCmpOrd's string comparison over a dictionary-encoded
// payload: the constant maps to a code (equality) or a code bound
// (ordering — legal because the dictionary is sorted, so code order is
// string order), and the loop compares int32 codes instead of strings.
// Selections are identical to selCmpOrd on the decoded values.
func selCmpCodes(op CmpOp, codes []int32, d *Dict, k string, cand, out []int32) []int32 {
	switch op {
	case EQ, NE:
		c, ok := d.Code(k)
		if ok {
			return selCmpOrd(op, codes, c, cand, out)
		}
		if op == EQ {
			return out[:0]
		}
		return copyCand(cand, len(codes), out)
	case LT:
		return selCmpOrd(LT, codes, d.lowerBound(k), cand, out)
	case LE:
		return selCmpOrd(LT, codes, d.upperBound(k), cand, out)
	case GT:
		return selCmpOrd(GE, codes, d.upperBound(k), cand, out)
	default: // GE
		return selCmpOrd(GE, codes, d.lowerBound(k), cand, out)
	}
}

// gatherFloats writes the payload elements at sel (nil = all of them) into
// dst as float64 — AsFloat over a whole vector.
func gatherFloats[T numeric](dst []float64, vals []T, sel []int32) {
	if sel == nil {
		vals = vals[:len(dst)]
		for i := range dst {
			dst[i] = float64(vals[i])
		}
		return
	}
	sel = sel[:len(dst)]
	for li := range dst {
		dst[li] = float64(vals[sel[li]])
	}
}
