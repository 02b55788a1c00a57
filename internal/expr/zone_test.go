package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refZone is the boxed zone entry the typed Zone replaced — its bounds
// held as Values — kept as the reference Zone must reproduce.
type refZone struct {
	Min, Max Value // Null while no non-NULL value has been folded
	HasNulls bool
}

// updateRef is the per-value zone update Fold replaced, kept as the
// reference Fold must reproduce: the first non-NULL value seeds both
// bounds, and a later one replaces a bound only when Compare puts it
// strictly beyond. A NaN widens the bounds to [-Inf, +Inf], which no
// later value passes.
func updateRef(z *refZone, v Value) {
	if v.IsNull() {
		z.HasNulls = true
		return
	}
	if v.Kind == KindFloat && math.IsNaN(v.F) {
		z.Min, z.Max = Float(math.Inf(-1)), Float(math.Inf(1))
		return
	}
	if z.Min.IsNull() {
		z.Min, z.Max = v, v
		return
	}
	if Compare(v, z.Min) < 0 {
		z.Min = v
	}
	if Compare(v, z.Max) > 0 {
		z.Max = v
	}
}

// sameZone reports whether the typed zone z holds the reference zone r:
// the same kind and null presence, and bounds equal down to the bits —
// numerics as float64, so -0 does not match +0.
func sameZone(z Zone, r refZone) bool {
	if z.HasNulls != r.HasNulls || z.Kind != r.Min.Kind {
		return false
	}
	switch z.Kind {
	case KindNull:
		return true
	case KindString:
		return z.SLo == r.Min.S && z.SHi == r.Max.S
	}
	return math.Float64bits(z.Lo) == math.Float64bits(r.Min.AsFloat()) &&
		math.Float64bits(z.Hi) == math.Float64bits(r.Max.AsFloat())
}

// randZoneVec builds a vector of one kind whose values tie often and sit
// where float64 comparison is delicate: ints on both sides of 2⁵³ (where
// distinct ints share a float64), ±0 and NaN among floats, a small
// alphabet of strings (dictionary-encoded half the time). About a fifth
// of the elements are NULL, and some vectors are NULL throughout.
func randZoneVec(rng *rand.Rand) ColVec {
	kinds := []Kind{KindInt, KindDate, KindBool, KindFloat, KindString}
	kind := kinds[rng.Intn(len(kinds))]
	n := rng.Intn(40)
	nullRate := []float64{0, 0.2, 1}[rng.Intn(3)]
	var v ColVec
	for i := 0; i < n; i++ {
		if rng.Float64() < nullRate {
			v.Append(Value{})
			continue
		}
		switch kind {
		case KindInt:
			big := int64(1) << 53
			v.Append(Int([]int64{big - 1, big, big + 1, big + 2, -big - 1, -big, 0, 7}[rng.Intn(8)]))
		case KindDate:
			v.Append(Date(int64(rng.Intn(5))))
		case KindBool:
			v.Append(Bool(rng.Intn(2) == 0))
		case KindFloat:
			v.Append(Float([]float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, -2, math.Inf(1), math.Inf(-1)}[rng.Intn(7)]))
		case KindString:
			v.Append(String([]string{"", "a", "ab", "b", "B"}[rng.Intn(5)]))
		}
	}
	if v.Kind == KindString && rng.Intn(2) == 0 {
		var words []string
		for _, s := range v.S {
			if !slices.Contains(words, s) {
				words = append(words, s)
			}
		}
		v.EncodeDict(NewDict(words))
	}
	return v
}

// TestZoneFoldMatchesUpdate folds random vectors over random [from, to)
// splits and checks the zone after every run against the reference
// updated one value at a time.
func TestZoneFoldMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2f01d))
	for caseNo := 0; caseNo < 5000; caseNo++ {
		v := randZoneVec(rng)
		var got Zone
		var want refZone
		for from := 0; from < v.Len(); {
			to := from + 1 + rng.Intn(v.Len()-from)
			if rng.Intn(4) == 0 {
				got.Fold(&v, from, from) // an empty run changes nothing
			}
			got.Fold(&v, from, to)
			for i := from; i < to; i++ {
				updateRef(&want, v.Get(i))
			}
			if !sameZone(got, want) {
				t.Fatalf("case %d, %v vector %v, after [%d, %d): Fold gives %+v; per-value update gives %+v",
					caseNo, v.Kind, vecValues(&v), from, to, got, want)
			}
			from = to
		}
	}
}

// TestZoneMergeMatchesFold splits random vectors at a random point and
// requires that merging the two halves' zones gives the zone folding the
// whole vector gives — the rule Table.Stats relies on to merge page zones
// into a column's bounds. Merging onto or from an empty zone is covered
// by splits at either end.
func TestZoneMergeMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3e76e))
	for caseNo := 0; caseNo < 5000; caseNo++ {
		v := randZoneVec(rng)
		cut := rng.Intn(v.Len() + 1)
		var whole, head, tail Zone
		whole.Fold(&v, 0, v.Len())
		head.Fold(&v, 0, cut)
		tail.Fold(&v, cut, v.Len())
		head.Merge(&tail)
		if head != whole || math.Float64bits(head.Lo) != math.Float64bits(whole.Lo) || math.Float64bits(head.Hi) != math.Float64bits(whole.Hi) {
			t.Fatalf("case %d, %v vector %v cut at %d: merged %+v, folded %+v",
				caseNo, v.Kind, vecValues(&v), cut, head, whole)
		}
	}
}

func vecValues(v *ColVec) []Value {
	out := make([]Value, v.Len())
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

// refZonePrunes is ZonePrunes over boxed zones as it stood before zones
// held typed bounds, kept with its three leaf rules as the reference the
// typed rules must decide every NaN-free case by.
func refZonePrunes(pred Expr, zones []refZone) bool {
	switch p := pred.(type) {
	case Cmp:
		if col, ok := p.L.(Col); ok {
			if c, ok := p.R.(Const); ok {
				return refCmpPrunes(p.Op, &zones[col.Idx], c.V)
			}
		}
		if col, ok := p.R.(Col); ok {
			if c, ok := p.L.(Const); ok {
				return refCmpPrunes(p.Op.Flip(), &zones[col.Idx], c.V)
			}
		}
		return false
	case Between:
		col, ok := p.E.(Col)
		return ok && refBetweenPrunes(&zones[col.Idx], p.Lo, p.Hi)
	case *InHash:
		col, ok := p.E.(Col)
		return ok && refInHashPrunes(&zones[col.Idx], p.Set)
	case And:
		for _, t := range p.Terms {
			if refZonePrunes(t, zones) {
				return true
			}
		}
		return false
	case Or:
		for _, t := range p.Terms {
			if !refZonePrunes(t, zones) {
				return false
			}
		}
		return len(p.Terms) > 0
	default:
		return false
	}
}

func refCmpPrunes(op CmpOp, z *refZone, k Value) bool {
	if k.IsNull() || z.Min.IsNull() {
		return true
	}
	if !refComparable(z.Min.Kind, k.Kind) {
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

func refBetweenPrunes(z *refZone, lo, hi Value) bool {
	if hi.IsNull() || z.Min.IsNull() {
		return true
	}
	if !refComparable(z.Min.Kind, hi.Kind) {
		return false
	}
	if Compare(z.Min, hi) >= 0 {
		return true
	}
	if lo.IsNull() || !refComparable(z.Min.Kind, lo.Kind) {
		return false
	}
	return Compare(z.Max, lo) < 0
}

func refInHashPrunes(z *refZone, set map[Value]struct{}) bool {
	for m := range set {
		if m.IsNull() {
			if z.HasNulls {
				return false
			}
			continue
		}
		if z.Min.IsNull() || !refComparable(z.Min.Kind, m.Kind) {
			continue
		}
		if Compare(m, z.Min) >= 0 && Compare(m, z.Max) <= 0 {
			return false
		}
	}
	return true
}

// refComparable reports whether kinds a and b order under Compare — both
// strings or both numeric.
func refComparable(a, b Kind) bool {
	return (a == KindString && b == KindString) || (numericKind(a) && numericKind(b))
}
