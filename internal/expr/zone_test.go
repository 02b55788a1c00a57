package expr_test

import (
	"math"
	"math/rand"
	"testing"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

// randZoneCase draws a vector for the zone tests: an oracle vector of any
// kind and up to 39 elements.
func randZoneCase(rng *rand.Rand) *ColVec {
	return oracle.RandVec(rng, oracle.RandKind(rng, rng.Intn(2) == 0), rng.Intn(40), testDicts[rng.Intn(2)])
}

// TestZoneFoldMatchesUpdate folds random vectors over random [from, to)
// splits and checks the zone after every run against the oracle's zone,
// folded one value at a time.
func TestZoneFoldMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2f01d))
	for caseNo := 0; caseNo < 5000; caseNo++ {
		v := randZoneCase(rng)
		var got Zone
		var want oracle.Zone
		for from := 0; from < v.Len(); {
			to := from + 1 + rng.Intn(v.Len()-from)
			if rng.Intn(4) == 0 {
				got.Fold(v, from, from) // an empty run changes nothing
			}
			got.Fold(v, from, to)
			for i := from; i < to; i++ {
				want.Fold(v.Get(i))
			}
			if !want.Matches(got) {
				t.Fatalf("case %d, %v vector %v, after [%d, %d): Fold gives %+v; the oracle %+v",
					caseNo, v.Kind, vecValues(v), from, to, got, want)
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
		v := randZoneCase(rng)
		cut := rng.Intn(v.Len() + 1)
		var whole, head, tail Zone
		whole.Fold(v, 0, v.Len())
		head.Fold(v, 0, cut)
		tail.Fold(v, cut, v.Len())
		head.Merge(&tail)
		if head != whole || math.Float64bits(head.Lo) != math.Float64bits(whole.Lo) || math.Float64bits(head.Hi) != math.Float64bits(whole.Hi) {
			t.Fatalf("case %d, %v vector %v cut at %d: merged %+v, folded %+v",
				caseNo, v.Kind, vecValues(v), cut, head, whole)
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
