package expr

import (
	"fmt"
	"slices"
)

// ColVec is one column of an execution batch in columnar layout: a single
// kind tag, the values packed into one contiguous typed payload slice, and
// an optional NULL bitmap. Predicate and projection loops run over the
// payload slices directly — no per-value tag dispatch, no Row indirection —
// which is what makes the columnar executor's inner loops SIMD-shaped.
//
// Representation invariants:
//
//   - Kind is the kind of every non-NULL element; KindNull while the vector
//     is empty or all-NULL. Exactly one payload slice (I for Bool/Int/Date,
//     F for Float, S for String) is maintained at full length once Kind is
//     established; NULL elements hold a zero there.
//   - Nulls is nil when no element is NULL; otherwise it has one entry per
//     element.
//   - A vector holds one kind plus NULLs. Append of a non-NULL value of a
//     second kind panics: tables check every column against their schema on
//     load (catalog.Table.AppendBatch and Insert), and every expression
//     yields one kind, so no statement can build such a vector.
//   - Dict non-nil marks a dictionary-encoded string vector: Kind is
//     KindString, S is nil, and Codes holds one dictionary code per element
//     (zero under NULLs; Nulls stays authoritative). Reads are transparent —
//     Get decodes through the dictionary — and Append materializes back to
//     dense strings before mutating.
//
// Values read out of a vector are canonical: only the payload field implied
// by the kind is set, exactly as the package constructors build them.
type ColVec struct {
	Kind  Kind
	Nulls []bool
	I     []int64
	F     []float64
	S     []string
	Dict  *Dict
	Codes []int32
	n     int
}

// IntVec returns a NULL-free vector of kind k (Int, Date or Bool) that
// takes xs as its payload: how a bulk loader hands over a column it built
// as a plain slice.
func IntVec(k Kind, xs []int64) ColVec {
	if len(xs) == 0 {
		return ColVec{}
	}
	return ColVec{Kind: k, I: xs, n: len(xs)}
}

// FloatVec returns a NULL-free float vector that takes xs as its payload.
func FloatVec(xs []float64) ColVec {
	if len(xs) == 0 {
		return ColVec{}
	}
	return ColVec{Kind: KindFloat, F: xs, n: len(xs)}
}

// StringVec returns a NULL-free string vector that takes xs as its
// payload.
func StringVec(xs []string) ColVec {
	if len(xs) == 0 {
		return ColVec{}
	}
	return ColVec{Kind: KindString, S: xs, n: len(xs)}
}

// Len returns the number of elements.
func (v *ColVec) Len() int { return v.n }

// Reset empties the vector, keeping payload capacity.
func (v *ColVec) Reset() {
	v.Kind = KindNull
	v.Nulls = nil
	v.I = v.I[:0]
	v.F = v.F[:0]
	v.S = v.S[:0]
	v.Dict = nil
	v.Codes = v.Codes[:0]
	v.n = 0
}

// HasNulls reports whether any element is NULL.
func (v *ColVec) HasNulls() bool { return v.Nulls != nil }

// IsNull reports whether element i is NULL.
func (v *ColVec) IsNull(i int) bool {
	return v.Nulls != nil && v.Nulls[i]
}

// Get returns element i as a canonical Value.
func (v *ColVec) Get(i int) Value {
	if v.Nulls != nil && v.Nulls[i] {
		return Value{}
	}
	switch v.Kind {
	case KindNull:
		return Value{}
	case KindFloat:
		return Value{Kind: KindFloat, F: v.F[i]}
	case KindString:
		if v.Dict != nil {
			return Value{Kind: KindString, S: v.Dict.words[v.Codes[i]]}
		}
		return Value{Kind: KindString, S: v.S[i]}
	default:
		return Value{Kind: v.Kind, I: v.I[i]}
	}
}

// payloadAppendZero grows the established payload by one zero element.
func (v *ColVec) payloadAppendZero() {
	switch v.Kind {
	case KindNull:
	case KindFloat:
		v.F = append(v.F, 0)
	case KindString:
		if v.Dict != nil {
			v.Codes = append(v.Codes, 0)
		} else {
			v.S = append(v.S, "")
		}
	default:
		v.I = append(v.I, 0)
	}
}

// Append adds one value, establishing the vector's kind on the first
// non-NULL element. A non-NULL value of a second kind panics.
func (v *ColVec) Append(val Value) {
	if v.Dict != nil {
		v.undict()
	}
	if val.Kind == KindNull {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.n, v.n+8)
		}
		v.Nulls = append(v.Nulls, true)
		v.payloadAppendZero()
		v.n++
		return
	}
	if v.Kind == KindNull {
		// First non-NULL element: establish the kind, backfilling zeros
		// under any leading NULLs.
		v.Kind = val.Kind
		for i := 0; i < v.n; i++ {
			v.payloadAppendZero()
		}
	} else if val.Kind != v.Kind {
		panic(fmt.Sprintf("expr: appending a %v value to a vector of %v", val.Kind, v.Kind))
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	switch v.Kind {
	case KindFloat:
		v.F = append(v.F, val.F)
	case KindString:
		v.S = append(v.S, val.S)
	default:
		v.I = append(v.I, val.I)
	}
	v.n++
}

// AppendFrom appends src's elements — all of them when sel is nil,
// otherwise the elements at the selected physical indices, in selection
// order: the gather every blocking operator assembles its buffers and
// outputs with. Vectors of one kind (and, for dictionary strings, one
// dictionary) append payload to payload; a second dictionary arriving
// appends value by value.
func (v *ColVec) AppendFrom(src *ColVec, sel []int32) {
	if v.appendTyped(src, sel) {
		return
	}
	if sel == nil {
		for i := 0; i < src.n; i++ {
			v.Append(src.Get(i))
		}
		return
	}
	for _, i := range sel {
		v.Append(src.Get(int(i)))
	}
}

// Window returns elements [from, to) of v as a vector that shares v's
// storage: its kind, dictionary, payload and NULL bitmap, each slice cut
// as s[from:to:to]. The capacity cap is the guarantee a window rests on:
// appending to a window always copies out first, so it never writes into
// the elements that follow it in v. The bitmap is shared as it is, so a
// window is well-formed on its own when v has no NULL bitmap; a run of a
// vector that has one is canonical only through AppendRange's copy.
func (v *ColVec) Window(from, to int) ColVec {
	w := ColVec{Kind: v.Kind, Dict: v.Dict, n: to - from}
	if v.Nulls != nil {
		w.Nulls = v.Nulls[from:to:to]
	}
	switch {
	case v.Kind == KindNull:
	case v.Kind == KindFloat:
		w.F = v.F[from:to:to]
	case v.Kind != KindString:
		w.I = v.I[from:to:to]
	case v.Dict != nil:
		w.Codes = v.Codes[from:to:to]
	default:
		w.S = v.S[from:to:to]
	}
	return w
}

// AppendRange appends src's elements [from, to): AppendFrom over
// src.Window(from, to). Into an empty vector each slice is allocated
// once, sized to the run.
func (v *ColVec) AppendRange(src *ColVec, from, to int) {
	run := src.Window(from, to)
	v.AppendFrom(&run, nil)
}

// appendTyped is AppendFrom's payload-to-payload path. It reports false,
// having changed nothing, when the two vectors cannot share a payload.
func (v *ColVec) appendTyped(src *ColVec, sel []int32) bool {
	m := len(sel)
	if sel == nil {
		m = src.n
	}
	nulls := src.nullCount(sel, m)
	switch {
	case nulls == m:
		// Nothing but NULLs: no kind to establish or to clash with.
		if m > 0 && v.Nulls == nil {
			v.Nulls = make([]bool, v.n, v.n+m)
		}
		for i := 0; i < m; i++ {
			v.Nulls = append(v.Nulls, true)
			v.payloadAppendZero()
		}
		v.n += m
		return true
	case v.Kind == KindNull:
		// Empty or all-NULL so far: take src's kind (and dictionary),
		// backfilling zeros under the NULLs already held.
		v.Kind, v.Dict = src.Kind, src.Dict
		for i := 0; i < v.n; i++ {
			v.payloadAppendZero()
		}
	case v.Kind != src.Kind || v.Dict != src.Dict:
		return false
	}
	if nulls > 0 && v.Nulls == nil {
		v.Nulls = make([]bool, v.n, v.n+m)
	}
	if v.Nulls != nil {
		if nulls == 0 {
			v.Nulls = append(v.Nulls, make([]bool, m)...)
		} else {
			v.Nulls = gather(v.Nulls, src.Nulls, sel)
		}
	}
	switch {
	case v.Kind == KindFloat:
		v.F = gather(v.F, src.F, sel)
	case v.Kind != KindString:
		v.I = gather(v.I, src.I, sel)
	case v.Dict != nil:
		v.Codes = gather(v.Codes, src.Codes, sel)
	default:
		v.S = gather(v.S, src.S, sel)
	}
	v.n += m
	return true
}

// nullCount counts the NULLs among the m elements sel selects (nil: the
// first m).
func (v *ColVec) nullCount(sel []int32, m int) int {
	switch {
	case v.Kind == KindNull:
		return m
	case v.Nulls == nil:
		return 0
	}
	nulls := 0
	if sel == nil {
		for _, null := range v.Nulls[:m] {
			if null {
				nulls++
			}
		}
		return nulls
	}
	for _, i := range sel {
		if v.Nulls[i] {
			nulls++
		}
	}
	return nulls
}

// bytes sums Value.Bytes over the m elements sel selects (nil: the first
// m): fixed-width kinds from a NULL count alone, strings by their lengths,
// dictionary words through their codes.
func (v *ColVec) bytes(sel []int32, m int) int64 {
	if v.Kind != KindString {
		nulls := v.nullCount(sel, m)
		return 8*int64(m-nulls) + int64(nulls)
	}
	var n int64
	for li := 0; li < m; li++ {
		i := li
		if sel != nil {
			i = int(sel[li])
		}
		switch {
		case v.Nulls != nil && v.Nulls[i]:
			n++
		case v.Dict != nil:
			n += int64(len(v.Dict.words[v.Codes[i]])) + 2
		default:
			n += int64(len(v.S[i])) + 2
		}
	}
	return n
}

// AppendElem appends element i of src: AppendFrom for the consumer that
// interleaves rows from several sources (a sorted-run merge), with the
// same-kind non-NULL case inlined.
func (v *ColVec) AppendElem(src *ColVec, i int32) {
	if v.n > 0 && v.Kind == src.Kind && v.Kind != KindNull && v.Dict == src.Dict && (src.Nulls == nil || !src.Nulls[i]) {
		if v.Nulls != nil {
			v.Nulls = append(v.Nulls, false)
		}
		switch {
		case v.Kind == KindFloat:
			v.F = append(v.F, src.F[i])
		case v.Kind != KindString:
			v.I = append(v.I, src.I[i])
		case v.Dict != nil:
			v.Codes = append(v.Codes, src.Codes[i])
		default:
			v.S = append(v.S, src.S[i])
		}
		v.n++
		return
	}
	one := [1]int32{i}
	v.AppendFrom(src, one[:])
}

// gather appends src's elements at sel (nil = all of them) to dst. A dst
// that must grow at least doubles: an owned vector is garbage once its
// statement ends, so what it costs is the sum of the capacities it passed
// through, and append's 1.25× steps past 256 elements would make that
// several times its final size.
func gather[T any](dst, src []T, sel []int32) []T {
	n := len(sel)
	if sel == nil {
		n = len(src)
	}
	if cap(dst)-len(dst) < n {
		dst = slices.Grow(dst, max(n, len(dst)))
	}
	if sel == nil {
		return append(dst, src...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// CapBytes is the payload capacity v holds.
func (v *ColVec) CapBytes() int {
	return cap(v.Nulls) + 8*cap(v.I) + 8*cap(v.F) + 16*cap(v.S) + 4*cap(v.Codes)
}
