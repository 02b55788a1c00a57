package oracle

import (
	"math"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

// Zone is a column's zone held as boxed values: the least and the greatest
// non-NULL value folded, in Compare's order, and null presence.
type Zone struct {
	Min, Max expr.Value // NULL while no non-NULL value has been folded
	HasNulls bool
}

// Fold folds one value into the zone. The first non-NULL value seeds both
// bounds, and a later one replaces a bound only when Compare puts it
// strictly beyond, so of equal values the first stays. A NaN, which
// Compare ties with every value, widens the bounds to [-Inf, +Inf] for
// good. A NULL only sets HasNulls.
func (z *Zone) Fold(v expr.Value) {
	switch {
	case v.IsNull():
		z.HasNulls = true
	case v.Kind == expr.KindFloat && math.IsNaN(v.F):
		z.Min, z.Max = expr.Float(math.Inf(-1)), expr.Float(math.Inf(1))
	case z.Min.IsNull():
		z.Min, z.Max = v, v
	case expr.Compare(v, z.Min) < 0:
		z.Min = v
	case expr.Compare(v, z.Max) > 0:
		z.Max = v
	}
}

// Matches reports whether the engine's typed zone holds exactly z: the
// same kind and null presence, and bounds equal down to the bits, numerics
// as float64 (so -0 does not match +0).
func (z Zone) Matches(typed expr.Zone) bool {
	if typed.HasNulls != z.HasNulls || typed.Kind != z.Min.Kind {
		return false
	}
	switch typed.Kind {
	case expr.KindNull:
		return true
	case expr.KindString:
		return typed.SLo == z.Min.S && typed.SHi == z.Max.S
	}
	return math.Float64bits(typed.Lo) == math.Float64bits(z.Min.AsFloat()) &&
		math.Float64bits(typed.Hi) == math.Float64bits(z.Max.AsFloat())
}

// Prunes reports whether zones, one per column of a page, prove that pred
// holds for no row of the page. A comparison or range is false on a NULL
// operand, hash-set membership is Go map equality (a NULL member matches
// NULL rows), and a constant of another class than the column decides
// nothing. And prunes when any term does, Or when every term does.
func Prunes(pred expr.Expr, zones []Zone) bool {
	switch p := pred.(type) {
	case expr.Cmp:
		if col, ok := p.L.(expr.Col); ok {
			if c, ok := p.R.(expr.Const); ok {
				return cmpPrunes(p.Op, &zones[col.Idx], c.V)
			}
		}
		if col, ok := p.R.(expr.Col); ok {
			if c, ok := p.L.(expr.Const); ok {
				return cmpPrunes(p.Op.Flip(), &zones[col.Idx], c.V)
			}
		}
		return false
	case expr.Between:
		col, ok := p.E.(expr.Col)
		return ok && betweenPrunes(&zones[col.Idx], p.Lo, p.Hi)
	case *expr.InHash:
		col, ok := p.E.(expr.Col)
		return ok && inHashPrunes(&zones[col.Idx], p.Set)
	case expr.And:
		for _, t := range p.Terms {
			if Prunes(t, zones) {
				return true
			}
		}
		return false
	case expr.Or:
		for _, t := range p.Terms {
			if !Prunes(t, zones) {
				return false
			}
		}
		return len(p.Terms) > 0
	default:
		return false
	}
}

// cmpPrunes decides col op k over one zone.
func cmpPrunes(op expr.CmpOp, z *Zone, k expr.Value) bool {
	if k.IsNull() || z.Min.IsNull() {
		return true
	}
	if !sameClass(z.Min.Kind, k.Kind) {
		return false
	}
	switch op {
	case expr.EQ:
		return expr.Compare(k, z.Min) < 0 || expr.Compare(k, z.Max) > 0
	case expr.NE:
		return expr.Compare(z.Min, z.Max) == 0 && expr.Compare(k, z.Min) == 0
	case expr.LT:
		return expr.Compare(z.Min, k) >= 0
	case expr.LE:
		return expr.Compare(z.Min, k) > 0
	case expr.GT:
		return expr.Compare(z.Max, k) <= 0
	case expr.GE:
		return expr.Compare(z.Max, k) < 0
	default:
		return false
	}
}

// betweenPrunes decides lo <= col < hi over one zone: the range and the
// zone's bounds do not overlap.
func betweenPrunes(z *Zone, lo, hi expr.Value) bool {
	if hi.IsNull() || z.Min.IsNull() {
		return true
	}
	if !sameClass(z.Min.Kind, hi.Kind) {
		return false
	}
	if expr.Compare(z.Min, hi) >= 0 {
		return true
	}
	if lo.IsNull() || !sameClass(z.Min.Kind, lo.Kind) {
		return false
	}
	// An empty range, lo at or above hi, passes no row. Compare ties a NaN
	// lo with hi, yet v >= NaN holds for every v, so a NaN lo is no bound.
	if !(lo.Kind == expr.KindFloat && math.IsNaN(lo.F)) && expr.Compare(lo, hi) >= 0 {
		return true
	}
	return expr.Compare(z.Max, lo) < 0
}

// inHashPrunes decides membership in set over one zone.
func inHashPrunes(z *Zone, set map[expr.Value]struct{}) bool {
	for m := range set {
		if m.IsNull() {
			if z.HasNulls {
				return false
			}
			continue
		}
		if z.Min.IsNull() || !sameClass(z.Min.Kind, m.Kind) {
			continue
		}
		if expr.Compare(m, z.Min) >= 0 && expr.Compare(m, z.Max) <= 0 {
			return false
		}
	}
	return true
}

// sameClass reports whether values of kinds a and b order under Compare:
// both strings, or both numeric.
func sameClass(a, b expr.Kind) bool {
	numeric := func(k expr.Kind) bool {
		return k == expr.KindInt || k == expr.KindFloat || k == expr.KindDate || k == expr.KindBool
	}
	return (a == expr.KindString && b == expr.KindString) || (numeric(a) && numeric(b))
}

// ColStats is one column's statistics: the zone of all its values, folded
// in page order, and the number of distinct group keys among its non-NULL
// values.
type ColStats struct {
	Zone
	NDV int64
}

// Matches reports whether the engine's statistics for the column are
// exactly s.
func (s ColStats) Matches(typed *catalog.ColStats) bool {
	return s.Zone.Matches(typed.Zone) && s.NDV == typed.NDV
}

// Stats returns the statistics of every column of t.
func Stats(t *catalog.Table) []ColStats {
	cols := make([]ColStats, t.Schema.NumCols())
	for c := range cols {
		seen := make(map[string]struct{})
		for p := 0; p < t.Heap.NumPages(); p++ {
			v := &t.Heap.Page(p).Data.Cols[c]
			for i := 0; i < v.Len(); i++ {
				val := v.Get(i)
				cols[c].Fold(val)
				if !val.IsNull() {
					seen[GroupKey(val)] = struct{}{}
				}
			}
		}
		cols[c].NDV = int64(len(seen))
	}
	return cols
}
