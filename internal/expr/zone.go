package expr

import "slices"

// Zone is a per-page, per-column zone map entry: the min/max of the
// column's non-NULL values on that page plus null presence. A scan consults
// zones before reading a page; when the pushed-down predicate cannot hold
// anywhere inside [Min, Max], the page is skipped for the price of a
// zone-map check instead of a buffer-pool read. Zones live in expr because
// pruning must reason with exactly the Compare/Eval semantics the filters
// use — a divergence would silently drop rows. The zero Zone summarizes an
// empty page.
type Zone struct {
	Min, Max Value // Null when the page has no non-NULL values
	HasNulls bool
}

// Fold folds elements [from, to) of v into the zone entry, leaving it as
// folding them one at a time in order would: the first non-NULL value
// seeds Min and Max, a later one replaces a bound only when Compare puts
// it strictly beyond (numerics through float64, so a tie — two ints
// float64 cannot tell apart, ±0, NaN against anything — keeps the first;
// strings as Go strings), and a NULL only sets HasNulls. A heap column
// holds one kind, so every non-NULL value a zone sees compares with its
// bounds. The loop reads v's payload directly; only the winning elements
// are boxed.
func (z *Zone) Fold(v *ColVec, from, to int) {
	if v.Nulls != nil && !z.HasNulls {
		z.HasNulls = slices.Contains(v.Nulls[from:to], true)
	}
	seeded := !z.Min.IsNull()
	lo, hi := -1, -1
	switch {
	case v.Kind == KindNull:
	case v.Kind == KindFloat:
		lo, hi = numericExtremes(v.F, v.Nulls, from, to, seeded, z.Min.AsFloat(), z.Max.AsFloat())
	case v.Kind != KindString:
		lo, hi = numericExtremes(v.I, v.Nulls, from, to, seeded, z.Min.AsFloat(), z.Max.AsFloat())
	case v.Dict != nil:
		codes, words := v.Codes, v.Dict.words
		lo, hi = stringExtremes(func(i int) string { return words[codes[i]] }, v.Nulls, from, to, seeded, z.Min.S, z.Max.S)
	default:
		s := v.S
		lo, hi = stringExtremes(func(i int) string { return s[i] }, v.Nulls, from, to, seeded, z.Min.S, z.Max.S)
	}
	if lo >= 0 {
		z.Min = v.Get(lo)
	}
	if hi >= 0 {
		z.Max = v.Get(hi)
	}
}

// numericExtremes returns the positions in [from, to) of the elements
// that end as the minimum and maximum when the non-NULL elements, as
// float64, are folded in order onto bounds mn and mx (seeded) or onto
// nothing (the first element seeds both), replacing a bound only on a
// strict comparison. A position is -1 where the incoming bound stands.
func numericExtremes[T int64 | float64](xs []T, nulls []bool, from, to int, seeded bool, mn, mx float64) (lo, hi int) {
	lo, hi = -1, -1
	for i := from; i < to; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		x := float64(xs[i])
		switch {
		case !seeded:
			mn, mx, lo, hi, seeded = x, x, i, i, true
		case x < mn:
			mn, lo = x, i
		case x > mx:
			mx, hi = x, i
		}
	}
	return lo, hi
}

// stringExtremes is numericExtremes over the strings at(i).
func stringExtremes(at func(int) string, nulls []bool, from, to int, seeded bool, mn, mx string) (lo, hi int) {
	lo, hi = -1, -1
	for i := from; i < to; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		s := at(i)
		switch {
		case !seeded:
			mn, mx, lo, hi, seeded = s, s, i, i, true
		case s < mn:
			mn, lo = s, i
		case s > mx:
			mx, hi = s, i
		}
	}
	return lo, hi
}

// comparableClass reports whether kinds a and b order under Compare —
// both strings or both numeric. Pruning checks a constant's kind against
// the zone's with it, because a hand-built plan may compare a column with
// a constant of another class.
func comparableClass(a, b Kind) bool {
	return (a == KindString && b == KindString) || (numericKind(a) && numericKind(b))
}

// Prunable reports whether pred has a shape zone maps can ever prune on:
// single-column comparisons against constants, ranges, hash-set
// membership, and AND/OR combinations of those. A non-prunable predicate
// makes ZonePrunes trivially false, so scans skip the zone check (and its
// charge) entirely.
func Prunable(pred Expr) bool {
	switch p := pred.(type) {
	case Cmp:
		if _, ok := p.L.(Col); ok {
			_, ok2 := p.R.(Const)
			return ok2
		}
		if _, ok := p.R.(Col); ok {
			_, ok2 := p.L.(Const)
			return ok2
		}
		return false
	case Between:
		_, ok := p.E.(Col)
		return ok
	case *InHash:
		_, ok := p.E.(Col)
		return ok
	case And:
		for _, t := range p.Terms {
			if Prunable(t) {
				return true
			}
		}
		return false
	case Or:
		for _, t := range p.Terms {
			if !Prunable(t) {
				return false
			}
		}
		return len(p.Terms) > 0
	default:
		return false
	}
}

// ZonePrunes reports whether zones prove that pred holds for no row of the
// page — the page can be skipped without changing results. It is
// conservative: false means "must read", never "must not". The rules
// mirror Eval exactly: comparisons and ranges are false on NULL operands,
// and InHash membership is Go map equality (so a NULL set element matches
// NULL rows).
func ZonePrunes(pred Expr, zones []Zone) bool {
	switch p := pred.(type) {
	case Cmp:
		if col, ok := p.L.(Col); ok {
			if c, ok := p.R.(Const); ok {
				return cmpPrunes(p.Op, &zones[col.Idx], c.V)
			}
		}
		if col, ok := p.R.(Col); ok {
			if c, ok := p.L.(Const); ok {
				return cmpPrunes(p.Op.Flip(), &zones[col.Idx], c.V)
			}
		}
		return false
	case Between:
		col, ok := p.E.(Col)
		if !ok {
			return false
		}
		return betweenPrunes(&zones[col.Idx], p.Lo, p.Hi)
	case *InHash:
		col, ok := p.E.(Col)
		if !ok {
			return false
		}
		return inHashPrunes(&zones[col.Idx], p.Set)
	case And:
		for _, t := range p.Terms {
			if ZonePrunes(t, zones) {
				return true
			}
		}
		return false
	case Or:
		for _, t := range p.Terms {
			if !ZonePrunes(t, zones) {
				return false
			}
		}
		return len(p.Terms) > 0
	default:
		return false
	}
}

// cmpPrunes decides col ⋈ k against one zone entry.
func cmpPrunes(op CmpOp, z *Zone, k Value) bool {
	if k.IsNull() {
		// Cmp.Eval is false whenever an operand is NULL.
		return true
	}
	if z.Min.IsNull() {
		// No non-NULL values on the page; NULL rows never pass a Cmp.
		return true
	}
	if !comparableClass(z.Min.Kind, k.Kind) {
		// Eval would panic on the first row either way; don't mask it.
		return false
	}
	switch op {
	case EQ:
		return Compare(k, z.Min) < 0 || Compare(k, z.Max) > 0
	case NE:
		return Compare(z.Min, z.Max) == 0 && Compare(k, z.Min) == 0
	case LT:
		return Compare(z.Min, k) >= 0
	case LE:
		return Compare(z.Min, k) > 0
	case GT:
		return Compare(z.Max, k) <= 0
	case GE:
		return Compare(z.Max, k) < 0
	default:
		return false
	}
}

// betweenPrunes decides lo <= col < hi against one zone entry.
func betweenPrunes(z *Zone, lo, hi Value) bool {
	if hi.IsNull() {
		// Compare(v, NULL) is +1 for non-NULL v, so v < hi never holds.
		return true
	}
	if z.Min.IsNull() {
		return true
	}
	if !comparableClass(z.Min.Kind, hi.Kind) {
		return false
	}
	if Compare(z.Min, hi) >= 0 {
		return true
	}
	if lo.IsNull() {
		// Compare(v, NULL) >= 0 always holds: no lower bound.
		return false
	}
	if !comparableClass(z.Min.Kind, lo.Kind) {
		return false
	}
	return Compare(z.Max, lo) < 0
}

// inHashPrunes decides hash-set membership against one zone entry. Set
// membership is Go map equality on canonical Values, so a NULL element
// (Get yields Value{}) matches NULL rows, and members outside the
// column's comparable class can never match.
func inHashPrunes(z *Zone, set map[Value]struct{}) bool {
	for m := range set {
		if m.IsNull() {
			if z.HasNulls {
				return false
			}
			continue
		}
		if z.Min.IsNull() || !comparableClass(z.Min.Kind, m.Kind) {
			continue
		}
		if Compare(m, z.Min) >= 0 && Compare(m, z.Max) <= 0 {
			return false
		}
	}
	return true
}
