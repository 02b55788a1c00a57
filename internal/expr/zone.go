package expr

import (
	"math"
	"slices"
	"strings"
)

// Zone summarizes a run of one column's values: the bounds of its non-NULL
// values plus null presence, held the way Compare orders them — numerics
// as float64 in Lo and Hi, strings in SLo and SHi. A scan consults a
// page's zones before reading it; when the pushed-down predicate cannot
// hold anywhere inside the bounds, the page is skipped for the price of a
// zone-map check instead of a buffer-pool read. catalog.Table.Stats merges
// the page zones into the table's column bounds. Zones live in expr
// because pruning must reason with exactly the Compare/Eval semantics the
// filters use — a divergence would silently drop rows. The zero Zone
// summarizes an empty page.
type Zone struct {
	// Kind is the kind of the values folded; KindNull while none has been.
	Kind Kind
	// Lo and Hi bound a numeric column. Once a NaN is folded they are
	// [-Inf, +Inf] for good: Compare ties NaN with every value, so no
	// narrower interval can exclude a constant the NaN row matches.
	Lo, Hi float64
	// SLo and SHi bound a string column.
	SLo, SHi string
	HasNulls bool
}

// Fold folds elements [from, to) of v into the zone, leaving it as folding
// them one at a time in order would: the first non-NULL value seeds both
// bounds, a later one replaces a bound only when Compare puts it strictly
// beyond (numerics through float64, so a tie — two ints float64 cannot
// tell apart, ±0 — keeps the first; strings as Go strings), a NaN widens
// the bounds to [-Inf, +Inf], and a NULL only sets HasNulls. It takes the
// run's extremes in the payload's own type and merges them in: float64
// conversion is monotone, and a sorted dictionary's code order is its
// string order, so the bounds come out the same. A heap column holds one
// kind, so every non-NULL value a zone sees shares its class.
func (z *Zone) Fold(v *ColVec, from, to int) {
	run := Zone{HasNulls: v.Nulls != nil && slices.Contains(v.Nulls[from:to], true)}
	var ok bool
	switch {
	case v.Kind == KindFloat:
		run.Lo, run.Hi, ok = extremes(v.F, v.Nulls, from, to)
		if slices.ContainsFunc(v.F[from:to], math.IsNaN) {
			run.Lo, run.Hi = math.Inf(-1), math.Inf(1)
		}
	case v.Dict != nil:
		var lo, hi int32
		if lo, hi, ok = extremes(v.Codes, v.Nulls, from, to); ok {
			run.SLo, run.SHi = v.Dict.words[lo], v.Dict.words[hi]
		}
	case v.Kind == KindString:
		run.SLo, run.SHi, ok = extremes(v.S, v.Nulls, from, to)
	case v.Kind != KindNull:
		var lo, hi int64
		lo, hi, ok = extremes(v.I, v.Nulls, from, to)
		run.Lo, run.Hi = float64(lo), float64(hi)
	}
	if ok {
		run.Kind = v.Kind
	}
	z.Merge(&run)
}

// extremes returns the first minimum and the first maximum of the non-NULL
// elements of xs[from:to] — a bound is replaced only on a strict
// comparison — and false when there are none.
func extremes[T int64 | int32 | float64 | string](xs []T, nulls []bool, from, to int) (lo, hi T, ok bool) {
	for i := from; i < to; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		switch x := xs[i]; {
		case !ok:
			lo, hi, ok = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
	}
	return lo, hi, ok
}

// Merge folds zone o, a summary of values of z's column, into z with
// Fold's strict-comparison rule, so the result is the zone folding o's
// values after z's would give.
func (z *Zone) Merge(o *Zone) {
	nulls := z.HasNulls || o.HasNulls
	switch {
	case z.Kind == KindNull:
		*z = *o
	case o.Kind == KindNull:
	case o.Kind == KindString:
		if o.SLo < z.SLo {
			z.SLo = o.SLo
		}
		if o.SHi > z.SHi {
			z.SHi = o.SHi
		}
	default:
		if o.Lo < z.Lo {
			z.Lo = o.Lo
		}
		if o.Hi > z.Hi {
			z.Hi = o.Hi
		}
	}
	z.HasNulls = nulls
}

// against compares constant c with the zone's bounds, returning
// Compare(k, lo) and Compare(k, hi) for c's constant k. It decides nothing
// (false) when the zone has no bounds, or when k is NULL or of another
// class than the column — a hand-built plan may compare a column with such
// a constant.
func (z *Zone) against(c *cmpK) (lo, hi int, ok bool) {
	switch {
	case z.Kind == KindString && c.class == classString:
		return strings.Compare(c.s, z.SLo), strings.Compare(c.s, z.SHi), true
	case numericKind(z.Kind) && c.class == classNumeric:
		return compareFloats(c.f, z.Lo), compareFloats(c.f, z.Hi), true
	}
	return 0, 0, false
}

// Prunable reports whether f has a shape zone maps can ever prune on:
// a comparison of a column with a constant, a range, hash-set membership,
// an And with such a term, or an Or of nothing but such terms. Prunes is
// false whatever the zones for any other filter, so a scan whose filters
// are none of these skips the zone check, and its charge, entirely.
func (f *Filter) Prunable() bool {
	return f.zoneWalk(0, func(*step) bool { return true })
}

// Prunes reports whether zones, one per column of a page, prove that f's
// predicate holds for no row of the page — the page can be skipped without
// changing results. It is conservative: false means "must read", never
// "must not". The rules mirror Eval exactly: comparisons and ranges are
// false on NULL operands, and InHash membership is Go map equality (so a
// NULL set element matches NULL rows).
func (f *Filter) Prunes(zones []Zone) bool {
	return f.zoneWalk(0, func(s *step) bool {
		z := &zones[s.col]
		switch s.op {
		case opCmpConst:
			return cmpPrunes(&f.cmps[s.cmp], z)
		case opBetween:
			return betweenPrunes(z, &f.cmps[s.cmp], &f.cmps[s.cmp+1])
		}
		return inHashPrunes(z, s.set)
	})
}

// zoneWalk combines the verdicts leaf gives the column-against-constant,
// Between and InHash steps under step i: an And prunes when any term does,
// an Or when it has terms and every one does. A Not, a comparison of two
// columns and a per-row leaf never prune.
func (f *Filter) zoneWalk(i int32, leaf func(*step) bool) bool {
	s := &f.steps[i]
	switch s.op {
	case opAnd, opOr:
		every := s.op == opOr
		for k := s.lo; k < s.hi; k++ {
			if f.zoneWalk(k, leaf) != every {
				return !every
			}
		}
		return every && s.hi > s.lo
	case opCmpConst, opBetween, opInHash:
		return leaf(s)
	}
	return false
}

// cmpPrunes decides col ⋈ k against one zone entry.
func cmpPrunes(c *cmpK, z *Zone) bool {
	if c.class == classNone {
		// k is NULL: Cmp.Eval is false whenever an operand is NULL.
		return true
	}
	if z.Kind == KindNull {
		// No non-NULL values on the page; NULL rows never pass a Cmp.
		return true
	}
	lo, hi, ok := z.against(c)
	if !ok {
		// Eval would panic on the first row either way; don't mask it.
		return false
	}
	switch c.op {
	case EQ:
		return lo < 0 || hi > 0
	case NE:
		// Every value ties the one bound, and k ties it too. The other
		// class's bounds are both zero, so one test covers either class.
		return z.Lo == z.Hi && z.SLo == z.SHi && lo == 0
	case LT:
		return lo <= 0
	case LE:
		return lo < 0
	case GT:
		return hi >= 0
	case GE:
		return hi > 0
	default:
		return false
	}
}

// betweenPrunes decides lo <= col < hi against one zone entry.
func betweenPrunes(z *Zone, lo, hi *cmpK) bool {
	if hi.class == classNone {
		// Compare(v, NULL) is +1 for non-NULL v, so v < hi never holds.
		return true
	}
	if z.Kind == KindNull {
		return true
	}
	hiLo, _, ok := z.against(hi)
	if !ok {
		return false
	}
	if hiLo <= 0 {
		// hi is at or below every value, so v < hi never holds.
		return true
	}
	// A NULL lo decides nothing: Compare(v, NULL) >= 0 always holds.
	_, loHi, ok := z.against(lo)
	return ok && (loHi > 0 || emptyRange(lo, hi))
}

// emptyRange reports whether no value v satisfies lo <= v < hi, for
// non-NULL lo and hi of one class: lo is at or above hi. A NaN bound
// decides nothing here — Compare ties it with every value, so v >= NaN
// always holds.
func emptyRange(lo, hi *cmpK) bool {
	if lo.class == classString {
		return lo.s >= hi.s
	}
	return lo.f >= hi.f
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
		k := newCmpK(EQ, m)
		if lo, hi, ok := z.against(&k); ok && lo >= 0 && hi <= 0 {
			return false
		}
	}
	return true
}
