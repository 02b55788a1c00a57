package expr

import "strings"

// Ordering kernels over column payloads: the comparisons sort, top-N and
// MIN/MAX make per row, made on the typed payload slices instead of on
// boxed Values. Every one of them orders exactly as Compare does — NULL
// before everything, numerics through float64 (so ints beyond 2⁵³ tie as
// Compare ties them, and a NaN ties with everything), strings bytewise.

// SortKey orders by one column of a batch.
type SortKey struct {
	Col  int
	Desc bool
}

// CompareRows orders physical row i of a against physical row j of b under
// keys: negative when a's row sorts first, zero on a tie over every key.
// The two batches may be the same one (sorting a buffer) or different ones
// (a candidate against a kept row, or the heads of two sorted runs) of one
// schema, so each key column holds one kind on both sides.
func CompareRows(keys []SortKey, a *Batch, i int32, b *Batch, j int32) int {
	for _, k := range keys {
		c := compareElems(&a.Cols[k.Col], i, &b.Cols[k.Col], j)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// KeyOrder returns CompareRows(keys, b, i, b, j) as a function of i and j,
// built for sorting: each key's comparison is chosen once, by the payload
// its column holds right now, so the n·log n calls a sort makes skip the
// per-call dispatch. The function is valid only until b is next written.
func KeyOrder(keys []SortKey, b *Batch) func(i, j int32) int {
	cmps := make([]func(i, j int32) int, len(keys))
	for k, key := range keys {
		cmps[k] = vecOrder(&b.Cols[key.Col], key.Desc)
	}
	if len(cmps) == 1 {
		return cmps[0]
	}
	return func(i, j int32) int {
		for _, cmp := range cmps {
			if c := cmp(i, j); c != 0 {
				return c
			}
		}
		return 0
	}
}

// vecOrder returns compareElems(v, i, v, j), negated under desc,
// specialised on v's representation.
func vecOrder(v *ColVec, desc bool) func(i, j int32) int {
	sign := 1
	if desc {
		sign = -1
	}
	nulls := v.Nulls
	switch {
	case nulls != nil:
		return func(i, j int32) int { return sign * compareElems(v, i, v, j) }
	case v.Kind == KindNull:
		return func(i, j int32) int { return 0 }
	case v.Kind == KindFloat:
		f := v.F
		return func(i, j int32) int { return sign * compareFloats(f[i], f[j]) }
	case v.Kind != KindString:
		n := v.I
		return func(i, j int32) int { return sign * compareFloats(float64(n[i]), float64(n[j])) }
	case v.Dict != nil:
		codes := v.Codes
		return func(i, j int32) int { return sign * (int(codes[i]) - int(codes[j])) }
	}
	s := v.S
	return func(i, j int32) int { return sign * strings.Compare(s[i], s[j]) }
}

// compareElems is Compare(x.Get(i), y.Get(j)) read off the payloads of two
// vectors of one column: their non-NULL elements share a kind.
func compareElems(x *ColVec, i int32, y *ColVec, j int32) int {
	xNull := x.Nulls != nil && x.Nulls[i]
	yNull := y.Nulls != nil && y.Nulls[j]
	if xNull || yNull {
		switch {
		case xNull && yNull:
			return 0
		case xNull:
			return -1
		}
		return 1
	}
	switch {
	case x.Kind == KindFloat:
		return compareFloats(x.F[i], y.F[j])
	case x.Kind != KindString:
		return compareFloats(float64(x.I[i]), float64(y.I[j]))
	case x.Dict != nil && x.Dict == y.Dict:
		// One sorted dictionary: code order is string order.
		return int(x.Codes[i]) - int(y.Codes[j])
	}
	return strings.Compare(x.str(i), y.str(j))
}

// SelectNotAfter writes to out the candidates (cand; nil = every element)
// whose element of vec does not sort strictly after k under one sort key:
// !(x > k) ascending, !(x < k) descending, as Compare orders. A tie with k
// stays, and so does a NaN, which ties with everything, so the selection
// holds every row that can still sort at or before a row whose key is k.
// out must have capacity for every candidate and may share cand's backing
// array. It reports false, selecting nothing, when a typed loop cannot
// decide every row: vec carries NULLs, or k is NULL or of another Compare
// class.
func SelectNotAfter(vec *ColVec, k Value, desc bool, cand, out []int32) ([]int32, bool) {
	op := LE
	if desc {
		op = GE
	}
	c := newCmpK(op, k)
	if !c.fits(vec) {
		return nil, false
	}
	return c.sel(vec, true, cand, out), true
}

func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// str returns non-NULL element i of a string vector.
func (v *ColVec) str(i int32) string {
	if v.Dict != nil {
		return v.Dict.words[v.Codes[i]]
	}
	return v.S[i]
}

// FoldExtremes folds vec into per-group running extremes: for every
// non-NULL element li, ext[gid[li]] becomes that element when the group has
// none yet (its slot is still NULL) or when the element orders strictly
// before (sign < 0, a MIN) or strictly after (sign > 0, a MAX) the slot
// under Compare — strictly, so among equal values the earliest row's stays.
// A nil gid folds every element of vec into ext[0], a global aggregate's
// one group.
func FoldExtremes(ext []Value, gid []int32, vec *ColVec, sign int) {
	if gid == nil {
		foldExtreme(&ext[0], vec, sign)
		return
	}
	for li, g := range gid {
		if vec.IsNull(li) {
			continue
		}
		cur := &ext[g]
		var c int
		switch {
		case cur.Kind == KindNull: // the group's first value
			*cur = vec.Get(li)
			continue
		case vec.Kind == KindFloat:
			c = compareFloats(vec.F[li], cur.F)
		case vec.Kind != KindString:
			c = compareFloats(float64(vec.I[li]), float64(cur.I))
		default:
			c = strings.Compare(vec.str(int32(li)), cur.S)
		}
		if c*sign > 0 {
			*cur = vec.Get(li)
		}
	}
}

// foldExtreme is FoldExtremes for one group: every element of vec into
// cur. It keeps its own copy of the loop so the grouped loop above reads
// no gid test per row.
func foldExtreme(cur *Value, vec *ColVec, sign int) {
	for li := range vec.Len() {
		if vec.IsNull(li) {
			continue
		}
		var c int
		switch {
		case cur.Kind == KindNull: // the group's first value
			*cur = vec.Get(li)
			continue
		case vec.Kind == KindFloat:
			c = compareFloats(vec.F[li], cur.F)
		case vec.Kind != KindString:
			c = compareFloats(float64(vec.I[li]), float64(cur.I))
		default:
			c = strings.Compare(vec.str(int32(li)), cur.S)
		}
		if c*sign > 0 {
			*cur = vec.Get(li)
		}
	}
}

// FoldExtreme is FoldExtremes' step on one boxed value: merging the
// extremes of two partial aggregations, and every case the typed loops
// leave out.
func FoldExtreme(cur *Value, v Value, sign int) {
	if v.Kind == KindNull {
		return
	}
	if cur.Kind == KindNull || Compare(v, *cur)*sign > 0 {
		*cur = v
	}
}

// AsFloats returns every element of v as a float64 — Value.AsFloat over the
// whole vector, so NULLs (and strings) are zero. A float vector returns its
// own payload; any other converts into buf. The result is read-only and
// valid until v or buf is next written.
func (v *ColVec) AsFloats(buf []float64) []float64 {
	if v.Kind == KindFloat {
		return v.F
	}
	if cap(buf) < v.n {
		buf = make([]float64, v.n)
	}
	buf = buf[:v.n]
	if numericKind(v.Kind) {
		gatherFloats(buf, v.I, nil)
	} else {
		clear(buf)
	}
	return buf
}
