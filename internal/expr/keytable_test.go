package expr_test

import (
	"math"
	"math/rand"
	"testing"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

// Typed key equality — elemEqual, row by row, and verify, column by column
// — is exactly equality of the oracle's group keys: one NULL group apart
// from zero payloads, -0 with +0, a NaN only with a NaN of the same bits,
// kinds apart, and a word equal to itself whether coded under either
// dictionary or plain.
func TestKeyEqualityIsEncodedKeyEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	otherNaN := math.Float64frombits(0xfff8000000000000)
	vec := func(kind Kind) *ColVec {
		v := oracle.RandVec(rng, kind, 1+rng.Intn(20), testDicts[rng.Intn(2)])
		for i, f := range v.F {
			if f != f && rng.Intn(2) == 0 {
				v.F[i] = otherNaN
			}
		}
		return v
	}
	for c := 0; c < 3000; c++ {
		numeric := rng.Intn(4) > 0
		ku, kv := oracle.RandKind(rng, numeric), oracle.RandKind(rng, numeric)
		if rng.Intn(3) > 0 {
			kv = ku
		}
		u, v := vec(ku), vec(kv)
		sel := oracle.RandSel(rng, v.Len())
		n := v.Len()
		if sel != nil {
			n = len(sel)
		}
		ids := make([]int32, n)
		want := make([]bool, n)
		for li := range ids {
			ids[li] = int32(rng.Intn(u.Len()))
			j := At(sel, li)
			want[li] = oracle.GroupKey(u.Get(int(ids[li]))) == oracle.GroupKey(v.Get(j))
			if got := ElemEqual(u, int(ids[li]), v, j); got != want[li] {
				t.Fatalf("case %d: elemEqual(%v, %v) = %v", c, u.Get(int(ids[li])), v.Get(j), got)
			}
		}
		Verify([]*ColVec{u}, []*ColVec{v}, sel, ids)
		for li, id := range ids {
			if (id != Recheck) != want[li] {
				t.Fatalf("case %d row %d: verify kept %v for %v, want %v", c, li, id != Recheck, v.Get(At(sel, li)), want[li])
			}
		}
	}
}
