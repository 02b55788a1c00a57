package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// updateRef is the per-value zone update Fold replaced, kept as the
// reference Fold must reproduce: the first non-NULL value seeds both
// bounds, and a later one replaces a bound only when Compare puts it
// strictly beyond.
func updateRef(z *Zone, v Value) {
	if v.IsNull() {
		z.HasNulls = true
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

// sameValue reports whether a and b are the same value down to kind and
// payload bits, so a NaN bound matches a NaN and -0 does not match +0.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
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
		var got, want Zone
		for from := 0; from < v.Len(); {
			to := from + 1 + rng.Intn(v.Len()-from)
			if rng.Intn(4) == 0 {
				got.Fold(&v, from, from) // an empty run changes nothing
			}
			got.Fold(&v, from, to)
			for i := from; i < to; i++ {
				updateRef(&want, v.Get(i))
			}
			if !sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) || got.HasNulls != want.HasNulls {
				t.Fatalf("case %d, %v vector %v, after [%d, %d): Fold gives min %#v max %#v nulls %v; per-value update gives min %#v max %#v nulls %v",
					caseNo, v.Kind, vecValues(&v), from, to, got.Min, got.Max, got.HasNulls, want.Min, want.Max, want.HasNulls)
			}
			from = to
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
