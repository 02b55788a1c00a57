package expr

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// KeyTable is the key index of both blocking operators that look keys up:
// a hash join's build side (JoinTable) and a GROUP BY's groups. It maps a
// key to an int32 id and stores nothing else. The keys themselves stay in
// the caller's columns — the group-by values of an aggregation, the key
// column of a join's build side — at the row their id names. The zero
// value is an empty table holding nothing.
//
// A key that is one non-NULL Int, Date or Bool is found by value while
// every key held is of a single kind and falls in one window of values: the
// id of key x sits at direct[x-lo] as id+1, found with one load and never
// hashed. A join build lays the window out over its keys' span (layOut); a
// GROUP BY's is directSpan(1) wide, centred on its first key, and never
// grows. The first key that does not fit — a NULL, another kind or width of
// key, or one outside the window — moves every key into the hashed layout
// below, once and one way, until Reset.
//
// The hashed layout: slots are a power of two, at most half full, probed
// linearly; each packs the key hash's top 32 bits (its tag) with id+1, so
// one load rejects nearly every other key, and growth re-places a key
// without rehashing it. A batch of rows is looked up in three passes. The
// first takes each row's first slot that is empty or carries its tag: a
// candidate id, or a miss. The second checks every candidate against the
// stored key, column by column in one typed loop per column (verify) —
// group-key equality: one NULL group, kinds apart, floats by FloatKey. The
// third looks up again, key by key, the rare row whose candidate was
// another key with the same tag. Resolve then adds the keys the batch
// missed, key by key in row order.
//
// Resolve must not run beside any other call; once the Resolves are done,
// any number of goroutines may look keys up at once.
type KeyTable struct {
	n      int         // keys stored
	hashed bool        // the hashed layout holds the keys: one way, until Reset
	shift  uint8       // 64 - log2(len(slots)): a hash's home slot is hash>>shift
	val    *valueIndex // the by-value layout; nil until a key arrives by value
	slots  []uint64    // per slot: tag << 32 | id+1; 0 = empty
	hashes []uint64    // Resolve's key hashes, one batch at a time
}

// valueIndex is a KeyTable's by-value layout, kept apart so that a table
// that never holds a key by value — a GROUP BY-less aggregate's, or a run
// partial's under one — stays small. direct covers the keys of kind from
// lo to lo+len(direct)-1, offsets taken mod 2^64, so a window at either end
// of int64 wraps round to the other and still gives each key its own
// element.
type valueIndex struct {
	direct []int32 // per key x: id+1 at x-lo; 0 = absent
	lo     int64
	kind   Kind
}

// minKeySlots is the slot count of a hashed table's first allocation.
const minKeySlots = 8

// recheck marks, in a batch's ids, a row whose candidate verify rejected.
const recheck = -2

// directSpan is the widest span of keys a by-value array may cover for n
// keys: 4n int32s are the 16n bytes of the 2n 8-byte slots a hashed table
// of n keys takes at least. Fewer than 256 keys may still span 1024, a
// 4 KB array, so that a few dozen small keys, such as TPC-H quantities,
// need not be dense to skip hashing; that is a GROUP BY's whole window.
func directSpan(n int) int { return max(1024, 4*n) }

// byValueKind reports whether keys of kind k can be found by value: the
// kinds whose payload is the int64 I.
func byValueKind(k Kind) bool { return k == KindInt || k == KindDate || k == KindBool }

// Reset empties the table for the next keys, keeping its memory, and lets
// them start by value again.
func (t *KeyTable) Reset() {
	if t.val != nil {
		clear(t.val.direct)
		t.val.direct = t.val.direct[:0] // no window until the next first key
	}
	clear(t.slots)
	t.n, t.hashed = 0, false
}

// reserve makes room in the hashed layout for n more keys.
func (t *KeyTable) reserve(n int) {
	if 2*(t.n+n) > len(t.slots) {
		t.grow(n)
	}
}

// grow moves the keys into the fewest slots that leave room for n more. A
// slot keeps its hash's top 32 bits, all a table of up to 2^32 slots needs
// to place it.
func (t *KeyTable) grow(n int) {
	size := max(minKeySlots, 1<<bits.Len(uint(2*(t.n+n)-1)))
	old := t.slots
	t.slots = make([]uint64, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// place puts slot word s, whose key no slot holds, in the first empty slot
// from its home.
func (t *KeyTable) place(s uint64) {
	mask := len(t.slots) - 1
	p := int((s &^ (1<<32 - 1)) >> t.shift)
	for t.slots[p] != 0 {
		p = (p + 1) & mask
	}
	t.slots[p] = s
}

// layOut starts an empty table by value over the keys [lo, hi] of kind k:
// how a join build, which knows its keys before it adds them, sizes the
// window.
func (t *KeyTable) layOut(k Kind, lo, hi int64) {
	t.val = &valueIndex{direct: make([]int32, uint64(hi-lo)+1), lo: lo, kind: k}
}

// startAt readies an empty table for keys of kind k, the first of them x:
// unless layOut gave it a window, one directSpan(1) wide centred on x.
func (t *KeyTable) startAt(k Kind, x int64) {
	if t.val == nil {
		t.val = new(valueIndex)
	}
	v := t.val
	v.kind = k
	if len(v.direct) == 0 {
		w := directSpan(1)
		if cap(v.direct) < w {
			v.direct = make([]int32, w)
		}
		v.direct, v.lo = v.direct[:w], x-int64(w/2)
	}
}

// hash moves the table to the hashed layout for good, re-placing every key
// held by value under the hash HashKeys gives a one-column key.
func (t *KeyTable) hash() {
	if t.hashed {
		return
	}
	t.hashed = true
	n := t.n
	t.n = 0
	t.reserve(n)
	t.n = n
	if n == 0 {
		return
	}
	v := t.val
	for o, e := range v.direct {
		if e != 0 {
			h := mix(0, uint64(v.lo+int64(o)))
			t.place(h>>32<<32 | uint64(uint32(e)))
		}
	}
	clear(v.direct)
}

// Resolve sets ids[li], for each logical row li of cols (through sel, or
// the first len(ids) rows when sel is nil), to the id of the stored key
// equal to that row's. A key not stored yet takes the id add returns for
// the physical index of its first row, and add must make element id of
// every keys vector that row's key before it returns. New keys are added
// in row order.
func (t *KeyTable) Resolve(keys, cols []*ColVec, sel []int32, ids []int32, add func(i int) int32) {
	if len(ids) == 0 || !t.hashed && t.resolveByValue(cols, sel, ids, add) {
		return
	}
	t.hash() // a no-op unless the batch stopped the by-value layout
	t.hashes = HashKeys(t.hashes, cols, sel, len(ids))
	t.lookupHashed(t.hashes, keys, cols, sel, ids)
	for li := range ids {
		if ids[li] >= 0 {
			continue
		}
		i := at(sel, li)
		t.reserve(1)
		p, id := t.find(t.hashes[li], keys, cols, i)
		if id < 0 { // not added by an earlier row of the batch either
			id = add(i)
			t.slots[p] = t.hashes[li]>>32<<32 | uint64(uint32(id)+1)
			t.n++
		}
		ids[li] = id
	}
}

// resolveByValue resolves the batch as Resolve does in the by-value layout
// and reports true, or stops at the first row it cannot hold and reports
// false: the rows before it are resolved and their new keys added, and the
// hashed layout finds them again.
func (t *KeyTable) resolveByValue(cols []*ColVec, sel []int32, ids []int32, add func(i int) int32) bool {
	c := cols[0]
	if len(cols) != 1 || !byValueKind(c.Kind) || t.n > 0 && c.Kind != t.val.kind {
		return false
	}
	if t.n == 0 {
		i := at(sel, 0)
		if c.Nulls != nil && c.Nulls[i] {
			return false
		}
		t.startAt(c.Kind, c.I[i])
	}
	direct, lo, span := t.val.direct, t.val.lo, uint64(len(t.val.direct))
	for li := range ids {
		i := at(sel, li)
		o := uint64(c.I[i] - lo)
		if o >= span || c.Nulls != nil && c.Nulls[i] {
			return false
		}
		if e := direct[o]; e != 0 {
			ids[li] = e - 1
			continue
		}
		id := add(i)
		direct[o] = id + 1
		t.n++
		ids[li] = id
	}
	return true
}

// lookup sets ids[li] as Resolve does, but to -1 for a key the table does
// not hold, and stores nothing. The hashed layout hashes the keys into
// *hashes, the caller's scratch.
func (t *KeyTable) lookup(keys, cols []*ColVec, sel []int32, ids []int32, hashes *[]uint64) {
	switch {
	case t.n == 0:
		for li := range ids {
			ids[li] = -1
		}
	case !t.hashed:
		t.val.lookup(cols[0], sel, ids)
	default:
		*hashes = HashKeys(*hashes, cols, sel, len(ids))
		t.lookupHashed(*hashes, keys, cols, sel, ids)
	}
}

// lookup is KeyTable.lookup in the by-value layout, whose keys are one
// column: a NULL, a key of another kind and one outside the array are held
// by no id.
func (v *valueIndex) lookup(c *ColVec, sel []int32, ids []int32) {
	if c.Kind != v.kind {
		for li := range ids {
			ids[li] = -1
		}
		return
	}
	direct, lo, span := v.direct, v.lo, uint64(len(v.direct))
	for li := range ids {
		i := at(sel, li)
		id := int32(-1)
		if o := uint64(c.I[i] - lo); o < span && (c.Nulls == nil || !c.Nulls[i]) {
			id = direct[o] - 1
		}
		ids[li] = id
	}
}

// lookupHashed is lookup in the hashed layout, the keys' hashes given. It
// runs the three passes: candidates, verify, and a key-by-key look at the
// rows verify rejected.
func (t *KeyTable) lookupHashed(hashes []uint64, keys, cols []*ColVec, sel []int32, ids []int32) {
	if t.n == 0 {
		for li := range ids {
			ids[li] = -1
		}
		return
	}
	slots, mask := t.slots, len(t.slots)-1
	for li, h := range hashes {
		p := int(h >> t.shift)
		s := slots[p]
		for s != 0 && s>>32 != h>>32 { // first slot empty or of h's tag
			p = (p + 1) & mask
			s = slots[p]
		}
		ids[li] = int32(uint32(s)) - 1
	}
	verify(keys, cols, sel, ids)
	for li, id := range ids {
		if id == recheck {
			_, ids[li] = t.find(hashes[li], keys, cols, at(sel, li))
		}
	}
}

// find returns the id stored under the key equal to row i of cols, or -1
// and the empty slot where that key would go: the key-by-key lookup.
func (t *KeyTable) find(h uint64, keys, cols []*ColVec, i int) (int, int32) {
	mask := len(t.slots) - 1
	for p := int(h >> t.shift); ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			return p, -1
		}
		if id := int32(uint32(s)) - 1; s>>32 == h>>32 && keysEqual(keys, int(id), cols, i) {
			return p, id
		}
	}
}

// verify sets ids[li] to recheck wherever the stored key it names (element
// ids[li] of keys) differs from logical row li of cols; negative ids are
// left alone. Each column pair is compared in one loop over its payloads,
// typed when the two vectors share a kind and representation and hold no
// NULL.
func verify(keys, cols []*ColVec, sel []int32, ids []int32) {
	for c, k := range keys {
		v := cols[c]
		typed := k.Kind == v.Kind && k.Kind != KindNull && k.Nulls == nil && v.Nulls == nil && k.Dict == v.Dict
		switch {
		case !typed:
			for li, id := range ids {
				if id >= 0 && !elemEqual(k, int(id), v, at(sel, li)) {
					ids[li] = recheck
				}
			}
		case k.Kind == KindFloat:
			for li, id := range ids {
				if id >= 0 && !floatKeysEqual(k.F[id], v.F[at(sel, li)]) {
					ids[li] = recheck
				}
			}
		case k.Kind != KindString:
			markUnequal(ids, k.I, v.I, sel)
		case k.Dict != nil:
			markUnequal(ids, k.Codes, v.Codes, sel)
		default:
			markUnequal(ids, k.S, v.S, sel)
		}
	}
}

// markUnequal sets ids[li] to recheck wherever the stored payload element
// ids[li] differs from the probe payload's element for row li.
func markUnequal[T comparable](ids []int32, stored, probe []T, sel []int32) {
	for li, id := range ids {
		if id >= 0 && stored[id] != probe[at(sel, li)] {
			ids[li] = recheck
		}
	}
}

// keysEqual reports whether element a of every key column equals element b
// of the matching probe column.
func keysEqual(keys []*ColVec, a int, cols []*ColVec, b int) bool {
	for c, k := range keys {
		if !elemEqual(k, a, cols[c], b) {
			return false
		}
	}
	return true
}

// elemEqual reports whether element i of u and element j of v have one
// group-key encoding: both NULL, or of one kind with equal payloads —
// floats by floatKeysEqual; strings by their words, through codes when
// both vectors share a dictionary.
func elemEqual(u *ColVec, i int, v *ColVec, j int) bool {
	if u.Kind != v.Kind { // two kinds, or an all-NULL vector beside another
		return u.nullAt(i) && v.nullAt(j)
	}
	if u.Nulls != nil || v.Nulls != nil {
		if un, vn := u.nullAt(i), v.nullAt(j); un || vn {
			return un == vn
		}
	}
	switch u.Kind {
	case KindNull:
		return true
	case KindFloat:
		return floatKeysEqual(u.F[i], v.F[j])
	case KindString:
		if u.Dict != nil && u.Dict == v.Dict {
			return u.Codes[i] == v.Codes[j]
		}
		return u.str(int32(i)) == v.str(int32(j))
	}
	return u.I[i] == v.I[j]
}

// floatKeysEqual reports whether FloatKey(x) == FloatKey(y): -0 equals +0,
// and a NaN equals only a NaN of the same bits.
func floatKeysEqual(x, y float64) bool {
	return x == y || x != x && math.Float64bits(x) == math.Float64bits(y)
}

// nullAt reports whether element i is NULL, all-NULL vectors included.
func (v *ColVec) nullAt(i int) bool {
	return v.Kind == KindNull || v.Nulls != nil && v.Nulls[i]
}

// Key hashing. A row's hash folds its columns' element hashes in column
// order; an element hashes as its group-key equality reads it — an integer,
// date or bool by value, a float by FloatKey, a string by its word (a
// dictionary word's hash is computed once per dictionary and read by code)
// and a NULL as nullHash — so equal keys hash alike whatever their vectors'
// representation.

// hashMul is the odd multiplier of the fold: a multiply carries every bit
// of a value into the hash's top bits, where KeyTable reads it.
const hashMul = 0x9e3779b97f4a7c15

// nullHash is the element hash of NULL.
const nullHash = 0x5bd1e995

// stringSeed seeds word hashes. Hashes never leave the process, and no
// order or result depends on them.
var stringSeed = maphash.MakeSeed()

// hashString is a word's element hash.
func hashString(s string) uint64 { return maphash.String(stringSeed, s) }

// mix folds element hash x into row hash h.
func mix(h, x uint64) uint64 { return (bits.RotateLeft64(h, 26) ^ x) * hashMul }

// HashKeys sets h[li] to the key hash of logical row li of cols — through
// sel, or the first n rows when sel is nil — as KeyTable.Resolve takes
// them, and returns h, grown to n when it was shorter.
func HashKeys(h []uint64, cols []*ColVec, sel []int32, n int) []uint64 {
	if cap(h) < n {
		h = make([]uint64, n)
	}
	h = h[:n]
	clear(h)
	for _, v := range cols {
		v.hashInto(h, sel)
	}
	return h
}

// hashInto folds the element hash of each selected element into h: one
// loop per payload type, and one, element by element, for a vector with
// NULLs.
func (v *ColVec) hashInto(h []uint64, sel []int32) {
	switch {
	case v.Kind == KindNull:
		for li := range h {
			h[li] = mix(h[li], nullHash)
		}
	case v.Nulls != nil:
		for li := range h {
			i := at(sel, li)
			x := uint64(nullHash)
			if !v.Nulls[i] {
				x = v.elemHash(i)
			}
			h[li] = mix(h[li], x)
		}
	case v.Kind == KindFloat:
		for li := range h {
			h[li] = mix(h[li], FloatKey(v.F[at(sel, li)]))
		}
	case v.Kind != KindString:
		for li := range h {
			h[li] = mix(h[li], uint64(v.I[at(sel, li)]))
		}
	case v.Dict != nil:
		words := v.Dict.hashes()
		for li := range h {
			h[li] = mix(h[li], words[v.Codes[at(sel, li)]])
		}
	default:
		for li := range h {
			h[li] = mix(h[li], hashString(v.S[at(sel, li)]))
		}
	}
}

// elemHash is the element hash of non-NULL element i.
func (v *ColVec) elemHash(i int) uint64 {
	switch {
	case v.Kind == KindFloat:
		return FloatKey(v.F[i])
	case v.Kind != KindString:
		return uint64(v.I[i])
	case v.Dict != nil:
		return v.Dict.hashes()[v.Codes[i]]
	}
	return hashString(v.S[i])
}

// at returns the physical index of logical element li under sel.
func at(sel []int32, li int) int {
	if sel == nil {
		return li
	}
	return int(sel[li])
}
