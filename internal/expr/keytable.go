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
// Slots are a power of two, at most half full, probed linearly; each packs
// the key hash's top 32 bits (its tag) with id+1, so one load rejects
// nearly every other key, and growth re-places a key without rehashing it.
// A batch of rows is looked up in three passes. The first takes each row's
// first slot that is empty or carries its tag: a candidate id, or a miss.
// The second checks every candidate against the stored key, column by
// column in one typed loop per column (verify) — group-key equality: one
// NULL group, kinds apart, floats by FloatKey. The third looks up again,
// key by key, the rare row whose candidate was another key with the same
// tag. Resolve then adds the keys the batch missed, key by key in row
// order.
//
// Resolve must not run beside any other call; once the Resolves are done,
// any number of goroutines may look keys up at once.
type KeyTable struct {
	n      int      // keys stored
	shift  uint8    // 64 - log2(len(slots)): a hash's home slot is hash>>shift
	slots  []uint64 // per slot: tag << 32 | id+1; 0 = empty
	hashes []uint64 // Resolve's key hashes, one batch at a time
}

// minKeySlots is the slot count of a table's first allocation.
const minKeySlots = 8

// recheck marks, in a batch's ids, a row whose candidate verify rejected.
const recheck = -2

// Reset empties the table for the next keys, keeping its memory.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.n = 0
}

// reserve makes room for n more keys.
func (t *KeyTable) reserve(n int) {
	if 2*(t.n+n) > len(t.slots) {
		t.grow(n)
	}
}

// grow moves the keys into the fewest slots that leave room for n more. A
// slot keeps its hash's top 32 bits, all a table of up to 2^32 slots needs
// to place it. An empty table has no key to move, so it lays its slots out
// in the array it holds when that is long enough.
func (t *KeyTable) grow(n int) {
	size := max(minKeySlots, 1<<bits.Len(uint(2*(t.n+n)-1)))
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	if t.n == 0 && cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
		return
	}
	old := t.slots
	t.slots = make([]uint64, size)
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

// Resolve sets ids[li], for each logical row li of cols (through sel, or
// the first len(ids) rows when sel is nil), to the id of the stored key
// equal to that row's. A key not stored yet takes the id add returns for
// the physical index of its first row, and add must make element id of
// every keys vector that row's key before it returns. New keys are added
// in row order.
func (t *KeyTable) Resolve(keys, cols []*ColVec, sel []int32, ids []int32, add func(i int) int32) {
	if len(ids) == 0 {
		return
	}
	t.hashes = hashKeys(t.hashes, cols, sel, len(ids))
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

// lookup sets ids[li] as Resolve does, but to -1 for a key the table does
// not hold, and stores nothing. It hashes the keys into *hashes, the
// caller's scratch.
func (t *KeyTable) lookup(keys, cols []*ColVec, sel []int32, ids []int32, hashes *[]uint64) {
	if t.n == 0 {
		for li := range ids {
			ids[li] = -1
		}
		return
	}
	*hashes = hashKeys(*hashes, cols, sel, len(ids))
	t.lookupHashed(*hashes, keys, cols, sel, ids)
}

// lookupHashed is lookup, the keys' hashes given. It runs the three
// passes: candidates, verify, and a key-by-key look at the rows verify
// rejected.
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

// hashKeys sets h[li] to the key hash of logical row li of cols — through
// sel, or the first n rows when sel is nil — as KeyTable.Resolve takes
// them, and returns h, grown to n when it was shorter.
func hashKeys(h []uint64, cols []*ColVec, sel []int32, n int) []uint64 {
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

// CapBytes is the capacity the table's slots and hash scratch hold.
func (t *KeyTable) CapBytes() int { return 8*cap(t.slots) + 8*cap(t.hashes) }
