package expr_test

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"testing"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

var testDicts = []*Dict{
	NewDict([]string{"", "a", "ab", "abc", "b", "ba", "zz", "\x00x"}),
	NewDict([]string{"", "a", "ab", "abc", "b", "ba", "c", "zz", "\x00x"}),
}

var testDict = testDicts[0]

// AppendFrom's payload-to-payload gather must build the vector appending
// value by value builds — the same elements, and the representation
// invariants intact: no NULL bitmap without a NULL, no kind without a
// non-NULL element. The parts are of one kind, as a column's pages are;
// string parts arrive dense or under either of two dictionaries.
func TestAppendFromMatchesAppendingValueByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for c := 0; c < 3000; c++ {
		kind := oracle.RandKind(rng, rng.Intn(2) == 0)
		dst, want := &ColVec{}, &ColVec{}
		for part := 0; part < 1+rng.Intn(3); part++ {
			src := oracle.RandVec(rng, kind, rng.Intn(20), testDicts[rng.Intn(2)])
			sel := oracle.RandSel(rng, src.Len())
			if sel != nil && rng.Intn(2) == 0 {
				rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] }) // a gather, not a filter
			}
			dst.AppendFrom(src, sel)
			if sel == nil {
				for i := 0; i < src.Len(); i++ {
					want.Append(src.Get(i))
				}
			}
			for _, i := range sel {
				want.Append(src.Get(int(i)))
			}
			if len(sel) > 0 {
				last := sel[len(sel)-1]
				dst.AppendElem(src, last)
				want.Append(src.Get(int(last)))
			}
		}
		if dst.Len() != want.Len() {
			t.Fatalf("case %d: %d elements, want %d", c, dst.Len(), want.Len())
		}
		nulls := 0
		for i := 0; i < dst.Len(); i++ {
			if !oracle.SameValue(dst.Get(i), want.Get(i)) {
				t.Fatalf("case %d: element %d is %v, want %v", c, i, dst.Get(i), want.Get(i))
			}
			if dst.IsNull(i) {
				nulls++
			}
		}
		if (dst.Nulls != nil) != (nulls > 0) {
			t.Fatalf("case %d: NULL bitmap present=%v with %d NULLs", c, dst.Nulls != nil, nulls)
		}
		if (dst.Kind == KindNull) != (nulls == dst.Len()) {
			t.Fatalf("case %d: kind %v with %d NULLs of %d elements", c, dst.Kind, nulls, dst.Len())
		}
	}
}

// A vector holds one kind plus NULLs: appending a non-NULL value of a
// second kind — one value, or a gathered vector — panics instead of
// changing the representation, and NULLs fit any vector.
func TestAppendOfASecondKindPanics(t *testing.T) {
	ints := func() *ColVec {
		v := &ColVec{}
		v.Append(Null())
		v.Append(Int(7))
		v.Append(Null())
		return v
	}
	dates := &ColVec{}
	dates.Append(Date(9000))
	for name, appendDate := range map[string]func(v *ColVec){
		"Append":     func(v *ColVec) { v.Append(Date(9000)) },
		"AppendFrom": func(v *ColVec) { v.AppendFrom(dates, nil) },
		"AppendElem": func(v *ColVec) { v.AppendElem(dates, 0) },
	} {
		v := ints()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a date onto an int vector did not panic", name)
				}
			}()
			appendDate(v)
		}()
		if v.Kind != KindInt || v.Len() != 3 || v.Get(1) != Int(7) {
			t.Errorf("%s of a date changed the int vector: kind %v, %d elements", name, v.Kind, v.Len())
		}
	}
}

// An owned vector built up batch by batch costs the sum of the capacities
// it grows through, so AppendFrom must grow geometrically: appending n
// elements in small batches allocates at most about 4n elements in all.
// Append's own 1.25× steps past 256 elements would cost about 5n.
func TestAppendFromGrowsGeometrically(t *testing.T) {
	const n, batch = 100_000, 64
	src := &ColVec{}
	sel := make([]int32, batch)
	for i := range sel {
		src.Append(Int(int64(i)))
		sel[i] = int32(i)
	}
	for _, s := range [][]int32{nil, sel} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dst := &ColVec{}
		for dst.Len() < n {
			dst.AppendFrom(src, s)
		}
		runtime.ReadMemStats(&after)
		elems := float64(after.TotalAlloc-before.TotalAlloc) / 8
		if elems > 4*n {
			t.Errorf("sel %v: appending %d elements allocated %.0f elements' worth, want at most %d",
				s != nil, dst.Len(), elems, 4*n)
		}
	}
}

// CompareRows reads Compare's order off the payloads, across
// representations (a dictionary vector against a dense one, an all-NULL
// page against a typed one), and KeyOrder is CompareRows specialised. Only
// the sign of either is defined.
func TestCompareRowsAndKeyOrderMatchCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for c := 0; c < 2000; c++ {
		numeric := rng.Intn(2) == 0
		n := 1 + rng.Intn(12)
		a, b := NewBatch(2), NewBatch(2)
		for col := 0; col < 2; col++ {
			kind := oracle.RandKind(rng, numeric)
			a.Cols[col], b.Cols[col] = *oracle.RandVec(rng, kind, n, testDict), *oracle.RandVec(rng, kind, n, testDict)
		}
		a.N, b.N = n, n
		keys := []SortKey{{Col: rng.Intn(2), Desc: rng.Intn(2) == 0}, {Col: rng.Intn(2), Desc: rng.Intn(2) == 0}}[:1+rng.Intn(2)]
		want := func(x *Batch, i int, y *Batch, j int) int {
			for _, k := range keys {
				if c := Compare(x.Cols[k.Col].Get(i), y.Cols[k.Col].Get(j)); c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		}
		within := KeyOrder(keys, a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := cmp.Compare(CompareRows(keys, a, int32(i), b, int32(j)), 0); got != want(a, i, b, j) {
					t.Fatalf("case %d: CompareRows(a[%d], b[%d]) = %d, want %d", c, i, j, got, want(a, i, b, j))
				}
				if got := cmp.Compare(within(int32(i), int32(j)), 0); got != want(a, i, a, j) {
					t.Fatalf("case %d: KeyOrder(a)(%d, %d) = %d, want %d", c, i, j, got, want(a, i, a, j))
				}
			}
		}
	}
}

// FoldExtremes keeps what folding Compare row by row keeps — strictly, so
// the earliest of equal values stays — and AsFloats is AsFloat over a
// whole vector.
func TestFoldExtremesAndAsFloatsMatchBoxedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for c := 0; c < 2000; c++ {
		numeric := rng.Intn(2) == 0
		n := rng.Intn(30)
		vec := oracle.RandVec(rng, oracle.RandKind(rng, numeric), n, testDict)
		gid := make([]int32, n)
		for i := range gid {
			gid[i] = int32(rng.Intn(3))
		}
		hasNaN := false
		for i := 0; i < n; i++ {
			if v := vec.Get(i); v.Kind == KindFloat && v.F != v.F {
				hasNaN = true
			}
		}
		for _, sign := range []int{-1, +1} {
			if hasNaN {
				break // Compare ties NaN with everything: no extreme to agree on
			}
			got, want := make([]Value, 3), make([]Value, 3)
			FoldExtremes(got, gid, vec, sign)
			for i, g := range gid {
				FoldExtreme(&want[g], vec.Get(i), sign)
			}
			for g := range got {
				if !oracle.SameValue(got[g], want[g]) {
					t.Fatalf("case %d sign %d group %d: %v, want %v", c, sign, g, got[g], want[g])
				}
			}
		}
		floats := vec.AsFloats(nil)
		for i := 0; i < n; i++ {
			if v := vec.Get(i); math.Float64bits(floats[i]) != math.Float64bits(v.AsFloat()) {
				t.Fatalf("case %d element %d (%v): float %v", c, i, v, floats[i])
			}
		}
	}
}

// A JoinTable probe yields the pairs a nested loop matching canonical
// Values by oracle.JoinMatches yields, in its order. A quarter of the cases build from
// dozens of distinct integer keys, into a table of at least 64 slots — a
// join table is sized once, for its build rows, where a group table grows
// to that size three times over — and those keys are adversarial: they
// differ only in their high bits, or their hashes share every bit KeyTable
// reads, so all of them start in one slot under one tag and only the typed
// equality tells them apart.
func TestJoinTableMatchesNestedLoopOnValueEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	large := 0
	for c := 0; c < 2000; c++ {
		var build, probe *ColVec
		if c%4 == 3 {
			build, probe = collidingJoinKeys(rng)
		} else {
			numeric := rng.Intn(4) > 0
			buildKind, probeKind := oracle.RandKind(rng, numeric), oracle.RandKind(rng, numeric)
			if rng.Intn(3) > 0 {
				probeKind = buildKind // the join bind allows; a key of another kind matches nothing
			}
			build = oracle.RandVec(rng, buildKind, rng.Intn(25), testDict)
			probe = oracle.RandVec(rng, probeKind, rng.Intn(25), testDict)
		}
		sel := oracle.RandSel(rng, probe.Len())
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
		table := new(JoinTable)
		table.Build(build)
		if table.Slots() >= MinKeySlots<<3 {
			large++
		}
		gotB, gotP := table.Probe(probe, sel, &ProbeScratch{}, nil, nil)
		if len(gotB) != len(wantB) {
			t.Fatalf("case %d: %d matches, want %d", c, len(gotB), len(wantB))
		}
		for m := range gotB {
			if gotB[m] != wantB[m] || gotP[m] != wantP[m] {
				t.Fatalf("case %d match %d: (build %d, probe %d), want (%d, %d)", c, m, gotB[m], gotP[m], wantB[m], wantP[m])
			}
		}
	}
	if large < 400 {
		t.Fatalf("only %d builds took a table of %d slots or more", large, MinKeySlots<<3)
	}
}

// collidingJoinKeys draws a build side of 40 to 120 distinct integer or
// date keys, repeated and with NULLs among them, and a probe side over the
// same keys and as many misses, of the build's kind or, a fifth of the
// time, of the other. The keys either share their low 40 bits or are
// chosen so that their one-column hashes (x·hashMul) share the top 32 bits.
func collidingJoinKeys(rng *rand.Rand) (build, probe *ColVec) {
	inv := uint64(HashMul) // hashMul⁻¹ mod 2⁶⁴, by Newton's iteration
	for i := 0; i < 5; i++ {
		inv *= 2 - HashMul*inv
	}
	highBits := rng.Intn(2) == 0
	key := func(j int) int64 {
		if highBits {
			return int64(j) << 40
		}
		return int64((0xdead_beef<<32 + uint64(j)) * inv)
	}
	kinds := []Kind{KindInt, KindDate}
	k := rng.Intn(2)
	kind, probeKind := kinds[k], kinds[k]
	if rng.Intn(5) == 0 {
		probeKind = kinds[1-k]
	}
	m := 40 + rng.Intn(81)
	build, probe = &ColVec{}, &ColVec{}
	for r := 0; r < m+rng.Intn(2*m); r++ {
		j := r
		if r >= m {
			j = rng.Intn(m)
		}
		if rng.Intn(10) == 0 {
			build.Append(Null())
			continue
		}
		build.Append(Value{Kind: kind, I: key(j)})
	}
	for i := 0; i < 60; i++ {
		if rng.Intn(10) == 0 {
			probe.Append(Null())
			continue
		}
		probe.Append(Value{Kind: probeKind, I: key(rng.Intn(2 * m))})
	}
	return build, probe
}
