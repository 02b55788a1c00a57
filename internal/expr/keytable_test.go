package expr_test

import (
	"math"
	"math/bits"
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

// joinMatchesNestedLoop fails t unless probing a JoinTable built over
// build with probe (through sel) yields the pairs a nested loop matching
// canonical Values by oracle.JoinMatches yields, in its order, and returns
// the table.
func joinMatchesNestedLoop(t *testing.T, build, probe *ColVec, sel []int32) *JoinTable {
	t.Helper()
	var wantB, wantP []int32
	each := func(i int) {
		for r := 0; r < build.Len(); r++ {
			if oracle.JoinMatches(build.Get(r), probe.Get(i)) {
				wantB, wantP = append(wantB, int32(r)), append(wantP, int32(i))
			}
		}
	}
	if sel == nil {
		for i := 0; i < probe.Len(); i++ {
			each(i)
		}
	}
	for _, i := range sel {
		each(int(i))
	}
	check := func(what string, table *JoinTable) {
		gotB, gotP := table.Probe(probe, sel, &ProbeScratch{}, nil, nil)
		if len(gotB) != len(wantB) {
			t.Fatalf("%s %s table: %d matches, want %d", what, table.Layout(), len(gotB), len(wantB))
		}
		for m := range gotB {
			if gotB[m] != wantB[m] || gotP[m] != wantP[m] {
				t.Fatalf("%s %s table, match %d: (build %d, probe %d), want (%d, %d)", what, table.Layout(), m, gotB[m], gotP[m], wantB[m], wantP[m])
			}
		}
	}
	table := new(JoinTable)
	table.Build(build)
	check("fresh", table)
	// A table rebuilt after indexing other keys — the probe side's, in
	// whichever layout they take — keeps its buffers and answers the same.
	reused := new(JoinTable)
	reused.Build(probe)
	reused.Build(build)
	check("reused", reused)
	return table
}

// integerJoinKeys decodes a fuzz input into a build and a probe key
// column. The build holds base and base+span-1 (wrapping; span 0 reads as
// 2⁶⁴) and, per two bytes of build, one key at that fraction of the span.
// Per two bytes of probe, a probe key is a build key, a key in or just
// outside the span, the key one past the span or NULL, or a build key plus
// one. The flags choose Date over Int for the build, the other kind for the
// probe, NULL probe keys, NULLs among the build keys and a selection over
// the probe.
func integerJoinKeys(base int64, span uint64, build, probe []byte, flags uint8) (*ColVec, *ColVec, []int32) {
	offset := func(x uint16, width uint64) int64 {
		if width == 0 {
			return int64(uint64(x) << 48)
		}
		hi, _ := bits.Mul64(uint64(x)<<48, width)
		return int64(hi)
	}
	kind, probeKind := KindInt, KindInt
	if flags&1 != 0 {
		kind, probeKind = KindDate, KindDate
	}
	if flags&2 != 0 {
		probeKind = KindDate + KindInt - kind
	}
	keys := []int64{base, base + int64(span-1)}
	for j := 0; j+1 < len(build); j += 2 {
		keys = append(keys, base+offset(uint16(build[j])<<8|uint16(build[j+1]), span))
	}
	b := &ColVec{}
	for r, x := range keys {
		if flags&4 != 0 && r%5 == 4 {
			b.Append(Null())
			continue
		}
		b.Append(Value{Kind: kind, I: x})
	}
	p := &ColVec{}
	for j := 0; j+1 < len(probe); j += 2 {
		x := uint16(probe[j])<<8 | uint16(probe[j+1])
		switch x % 4 {
		case 0:
			p.Append(Value{Kind: probeKind, I: keys[int(x/4)%len(keys)]})
		case 1:
			p.Append(Value{Kind: probeKind, I: base - 1 + offset(x, span+2)})
		case 2:
			if flags&8 != 0 {
				p.Append(Null())
			} else {
				p.Append(Value{Kind: probeKind, I: base + int64(span)})
			}
		default:
			p.Append(Value{Kind: probeKind, I: keys[int(x/4)%len(keys)] + 1})
		}
	}
	var sel []int32
	if flags&16 != 0 {
		sel = []int32{}
		for i := 0; i < p.Len(); i += 2 {
			sel = append(sel, int32(i))
		}
	}
	return b, p, sel
}

// thresholdSeed returns a build input of rows keys spanning span and a
// probe input of 200 keys.
func thresholdSeed(rng *rand.Rand, rows int) (build, probe []byte) {
	build, probe = make([]byte, 2*(rows-2)), make([]byte, 400)
	rng.Read(build)
	rng.Read(probe)
	return build, probe
}

// For arbitrary integer build and probe keys, a JoinTable — behind a
// bitmap or hashed — yields the pairs of a nested loop over canonical
// Values, in its order. The seeds put spans at the bitmap's threshold and
// either side of it, at 6, 300 and 1100 build rows, from -7 and ending at
// the top of int64, then at its bottom and across its whole range.
func FuzzJoinTableIntegerKeys(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	for _, rows := range []int{6, 300, 1100} {
		build, probe := thresholdSeed(rng, rows)
		span := PresenceSpan(rows)
		for _, s := range []int{span - 1, span, span + 1} {
			for _, base := range []int64{-7, math.MaxInt64 - int64(s-1)} {
				f.Add(base, uint64(s), build, probe, uint8(0))
			}
		}
	}
	build, probe := thresholdSeed(rng, 40)
	f.Add(int64(math.MinInt64), uint64(0), build, probe, uint8(0))
	f.Add(int64(math.MinInt64), uint64(1000), build, probe, uint8(1|8))
	f.Add(int64(math.MaxInt64-999), uint64(1000), build, probe, uint8(2|16))
	f.Add(int64(math.MaxInt64-5000), uint64(5001), build, probe, uint8(4|8|16))
	f.Add(int64(-1<<40), uint64(1<<20), build, probe, uint8(1|2|4|8))
	f.Add(int64(3), uint64(1), build, probe, uint8(4|8))
	f.Fuzz(func(t *testing.T, base int64, span uint64, build, probe []byte, flags uint8) {
		if len(build) > 1<<12 || len(probe) > 1<<10 {
			return // a nested loop over more keys only slows the fuzzer
		}
		b, p, sel := integerJoinKeys(base, span, build, probe, flags)
		joinMatchesNestedLoop(t, b, p, sel)
	})
}

// A join build takes a presence bitmap while its joinable keys span at
// most presenceSpan values, and the plain hashed layout past that: the
// threshold holds exactly, at both ends of int64. In either layout a probe
// vector with no integer payload — all NULL, or floats equal to build keys
// as numbers — matches nothing.
func TestJoinTableLayoutFollowsKeySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, rows := range []int{6, 300, 1100} {
		build, probe := thresholdSeed(rng, rows)
		cases := []struct {
			span   int
			layout string
		}{
			{1, "bitmap"}, {PresenceSpan(rows), "bitmap"}, {PresenceSpan(rows) + 1, "hashed"},
		}
		for _, c := range cases {
			for _, base := range []int64{-7, math.MinInt64, math.MaxInt64 - int64(c.span-1)} {
				b, p, sel := integerJoinKeys(base, uint64(c.span), build, probe, 0)
				if got := joinMatchesNestedLoop(t, b, p, sel).Layout(); got != c.layout {
					t.Errorf("%d rows spanning %d from %d: %s table, want %s", rows, c.span, base, got, c.layout)
				}
				nulls, floats := &ColVec{}, &ColVec{}
				for r := range 3 {
					nulls.Append(Null())
					floats.Append(Float(float64(b.I[r])))
				}
				joinMatchesNestedLoop(t, b, nulls, nil)
				joinMatchesNestedLoop(t, b, floats, nil)
			}
		}
	}
}
