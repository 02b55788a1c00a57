package expr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// FloatKey returns the bits that identify float f wherever values are
// keyed by identity — group keys, join keys, distinct counts: f's own
// bits, except that -0 takes +0's, because the two are one value under
// Compare and Go's ==.
func FloatKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

// CompareKeys orders elements i and j of v as group keys order groups at
// emission: by kind tag, a NULL element taking KindNull's, then by payload
// compared as its little-endian bytes — an integer, date or bool word, a
// float's FloatKey, a string's length word and then its bytes. Compared
// column by column, tuples order exactly as bytes.Compare orders their
// GroupKeys encodings, which are prefix-free.
func (v *ColVec) CompareKeys(i, j int32) int {
	ni, nj := v.nullAt(int(i)), v.nullAt(int(j))
	tag := func(null bool) Kind {
		if null {
			return KindNull
		}
		return v.Kind
	}
	if c := cmp.Compare(tag(ni), tag(nj)); c != 0 || ni {
		return c
	}
	rev := bits.ReverseBytes64
	switch v.Kind {
	case KindFloat:
		return cmp.Compare(rev(FloatKey(v.F[i])), rev(FloatKey(v.F[j])))
	case KindString:
		s, t := v.str(i), v.str(j)
		if c := cmp.Compare(rev(uint64(len(s))), rev(uint64(len(t)))); c != 0 {
			return c
		}
		return strings.Compare(s, t)
	}
	return cmp.Compare(rev(uint64(v.I[i])), rev(uint64(v.I[j])))
}

// fixedKeyWidth is the encoded width of every non-string group-key value:
// one kind tag plus the 8-byte payload (NULL is tag-only, width 1).
const fixedKeyWidth = 1 + 8

// GroupKeys builds the group keys of a whole batch column-wise: each
// group-by column is encoded in one pass over its contiguous typed payload,
// writing every row's fragment at a precomputed offset.
//
// A group key is the concatenation of its values' encodings (putKeyValue),
// and it defines group-key equality: two value tuples share a key exactly
// when they are equal tuple-wise, with one NULL group and floats as
// FloatKey identifies them. Every encoding starts with the kind tag and is
// either fixed width or length-prefixed, so no value can masquerade as the
// boundary between two others — the display-string keys this encoding
// replaced collapsed ("x\x00","y") with ("x","\x00y") and Int(1) with
// String("1"). KeyTable's typed equality (elemEqual) finds groups by the
// same definition, and CompareKeys orders them at emission as their keys
// sort, so the engine itself never builds one; the bench program's kernel
// ledger still times the builder.
//
// The builder owns its buffers and is reusable: Build overwrites the
// previous batch's keys.
type GroupKeys struct {
	buf  []byte
	offs []int32 // len n+1: key i is buf[offs[i]:offs[i+1]]
	cur  []int32 // per-row write cursors during Build
}

// Len returns the number of keys built.
func (g *GroupKeys) Len() int {
	if len(g.offs) == 0 {
		return 0
	}
	return len(g.offs) - 1
}

// Key returns row li's encoded group key. It aliases the builder's buffer
// and is valid until the next Build.
func (g *GroupKeys) Key(li int) []byte { return g.buf[g.offs[li]:g.offs[li+1]] }

// Build encodes the group keys of every logical row of b over the columns
// at positions cols. Pass one sizes each row's key (column-wise over the
// payloads); pass two writes each column's fragments at the running per-row
// cursor, again column-wise.
func (g *GroupKeys) Build(b *Batch, cols []int) {
	n := b.Len()
	g.offs = append(g.offs[:0], 0)
	g.cur = g.cur[:0]
	if n == 0 {
		return
	}

	// Pass 1: per-row encoded sizes, accumulated in cur.
	for i := 0; i < n; i++ {
		g.cur = append(g.cur, 0)
	}
	for _, c := range cols {
		vec := &b.Cols[c]
		switch {
		case vec.Kind == KindString || vec.Kind == KindNull:
			// Variable width (strings) or tag-only NULL columns: size
			// element by element.
			for li := 0; li < n; li++ {
				g.cur[li] += int32(keyWidth(vec, b.RowIdx(li)))
			}
		case vec.HasNulls():
			for li := 0; li < n; li++ {
				if vec.Nulls[b.RowIdx(li)] {
					g.cur[li]++
				} else {
					g.cur[li] += fixedKeyWidth
				}
			}
		default:
			for li := 0; li < n; li++ {
				g.cur[li] += fixedKeyWidth
			}
		}
	}
	total := int32(0)
	for li := 0; li < n; li++ {
		total += g.cur[li]
		g.offs = append(g.offs, total)
	}
	if cap(g.buf) < int(total) {
		g.buf = make([]byte, total)
	}
	g.buf = g.buf[:total]

	// Pass 2: write each column's fragment at the per-row cursor.
	copy(g.cur, g.offs[:n])
	for _, c := range cols {
		vec := &b.Cols[c]
		dense := b.Sel == nil && !vec.HasNulls()
		switch {
		case dense && (vec.Kind == KindBool || vec.Kind == KindInt || vec.Kind == KindDate):
			for li, v := range vec.I[:n] {
				at := g.cur[li]
				g.buf[at] = byte(vec.Kind)
				binary.LittleEndian.PutUint64(g.buf[at+1:], uint64(v))
				g.cur[li] = at + fixedKeyWidth
			}
		case dense && vec.Kind == KindFloat:
			for li, v := range vec.F[:n] {
				at := g.cur[li]
				g.buf[at] = byte(KindFloat)
				binary.LittleEndian.PutUint64(g.buf[at+1:], FloatKey(v))
				g.cur[li] = at + fixedKeyWidth
			}
		case dense && vec.Kind == KindString && vec.Dict != nil:
			for li, c := range vec.Codes[:n] {
				g.cur[li] += int32(putKeyString(g.buf[g.cur[li]:], vec.Dict.words[c]))
			}
		case dense && vec.Kind == KindString:
			for li, s := range vec.S[:n] {
				g.cur[li] += int32(putKeyString(g.buf[g.cur[li]:], s))
			}
		default:
			for li := 0; li < n; li++ {
				g.cur[li] += int32(putKeyValue(g.buf[g.cur[li]:], vec.Get(b.RowIdx(li))))
			}
		}
	}
}

// keyWidth returns the encoded width of element i of vec — exactly the
// number of bytes putKeyValue writes for vec.Get(i).
func keyWidth(vec *ColVec, i int) int {
	switch {
	case vec.IsNull(i):
		return 1
	case vec.Kind != KindString:
		return fixedKeyWidth
	}
	return fixedKeyWidth + len(vec.str(int32(i)))
}

// putKeyString writes the string encoding (tag, length, bytes) into dst and
// returns the width written.
func putKeyString(dst []byte, s string) int {
	dst[0] = byte(KindString)
	binary.LittleEndian.PutUint64(dst[1:], uint64(len(s)))
	return fixedKeyWidth + copy(dst[fixedKeyWidth:], s)
}

// putKeyValue writes one value's encoding into dst and returns the width:
// the kind tag, then nothing for NULL (all NULLs are one group), the 8-byte
// payload for a bool, integer or date, FloatKey's bits for a float, and
// the length and bytes of a string.
func putKeyValue(dst []byte, v Value) int {
	switch v.Kind {
	case KindNull:
		dst[0] = byte(KindNull)
		return 1
	case KindBool, KindInt, KindDate:
		dst[0] = byte(v.Kind)
		binary.LittleEndian.PutUint64(dst[1:], uint64(v.I))
		return fixedKeyWidth
	case KindFloat:
		dst[0] = byte(KindFloat)
		binary.LittleEndian.PutUint64(dst[1:], FloatKey(v.F))
		return fixedKeyWidth
	case KindString:
		return putKeyString(dst, v.S)
	default:
		panic(fmt.Sprintf("expr: cannot encode %v as a group key", v.Kind))
	}
}
