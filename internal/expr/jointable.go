package expr

import "slices"

// JoinTable indexes the key column of a hash join's build side in a
// KeyTable: each distinct key's id is the first build row carrying it, and
// next chains the rows of one key in build order. Two keys are equal
// exactly when the canonical Values are == — the kinds must match, -0
// equals +0, and neither NULL nor NaN equals anything: rows keyed by them
// enter no chain, so a probe key of either finds none. After
// BuildJoinTable returns the table is read-only and safe to probe from any
// number of goroutines, each with its own ProbeScratch.
//
// The KeyTable hashes every key. An Int, Date or Bool key column whose n
// joinable keys lie within presenceSpan(n) consecutive values also gets a
// bitmap with one bit per value of that span marking the keys present, so
// a probe hashes and verifies only the rows whose bit is set.
type JoinTable struct {
	keys  [1]*ColVec // the build key column, which the table's ids address
	table KeyTable
	next  []int32 // per build row: the next row with its key, or -1

	present []uint64 // bit x-lo set: some build row's key is x; nil = no bitmap
	lo      int64
	kind    Kind // the build keys' kind, with a bitmap
}

// ProbeScratch is one prober's per-batch buffers: the probe keys' hashes,
// the chain head each one finds, and the rows a bitmap lets through.
type ProbeScratch struct {
	hashes []uint64
	heads  []int32
	sel    []int32
}

// presenceSpan is the widest span of keys a build of n keys marks in a
// presence bitmap: 64n bits are 8n bytes, half the 16n bytes of the 2n
// 8-byte slots its hashed table takes at least. Fewer than 1024 keys may
// still span 2^16, an 8 KB bitmap, which fits a core's L1 cache beside the
// probe batch.
func presenceSpan(n int) int { return max(1<<16, 64*n) }

// BuildJoinTable indexes keys, one element per build row.
func BuildJoinTable(keys *ColVec) *JoinTable {
	n := keys.Len()
	t := &JoinTable{keys: [1]*ColVec{keys}, next: make([]int32, n)}
	rows := make([]int32, 0, n) // the rows whose key can equal anything
	for r := range t.next {
		t.next[r] = -1
		if keys.joinable(r) {
			rows = append(rows, int32(r))
		}
	}
	t.layOut(rows)
	heads := make([]int32, len(rows))
	t.table.Resolve(t.keys[:], t.keys[:], rows, heads, func(r int) int32 { return int32(r) })
	tail := make([]int32, n) // per chain head: the chain's last row so far
	for li, head := range heads {
		r := rows[li]
		if head != r {
			t.next[tail[head]] = r
		}
		tail[head] = r
	}
	return t
}

// layOut sizes the table for the build's joinable keys, rows, and fills
// the presence bitmap when their span takes one.
func (t *JoinTable) layOut(rows []int32) {
	v := t.keys[0]
	if len(rows) > 0 && (v.Kind == KindInt || v.Kind == KindDate || v.Kind == KindBool) {
		lo, hi := v.I[rows[0]], v.I[rows[0]]
		for _, r := range rows {
			lo, hi = min(lo, v.I[r]), max(hi, v.I[r])
		}
		if span := uint64(hi - lo); span < uint64(presenceSpan(len(rows))) {
			t.present, t.lo, t.kind = make([]uint64, span/64+1), lo, v.Kind
			for _, r := range rows {
				o := uint64(v.I[r] - lo)
				t.present[o/64] |= 1 << (o % 64)
			}
		}
	}
	t.table.reserve(len(rows))
}

// joinable reports whether element i can equal anything: it is neither
// NULL nor NaN, which is not even equal to itself.
func (v *ColVec) joinable(i int) bool {
	return !v.nullAt(i) && (v.Kind != KindFloat || v.F[i] == v.F[i])
}

// Probe looks every logical element of keys (sel nil = all of them) up in
// the table and appends one (build row, probe physical index) pair per
// match to build and probe — probe elements in order, each one's matches in
// build order, which is the order a nested loop over the two sides yields.
func (t *JoinTable) Probe(keys *ColVec, sel []int32, s *ProbeScratch, build, probe []int32) ([]int32, []int32) {
	if t.present != nil {
		if keys.Kind != t.kind {
			return build, probe
		}
		s.sel = t.marked(keys, sel, s.sel)
		if len(s.sel) == 0 { // and maybe nil, which would read as every row
			return build, probe
		}
		sel = s.sel
	}
	n := keys.Len()
	if sel != nil {
		n = len(sel)
	}
	if cap(s.heads) < n {
		s.heads = make([]int32, n)
	}
	heads := s.heads[:n]
	cols := [1]*ColVec{keys}
	t.table.lookup(t.keys[:], cols[:], sel, heads, &s.hashes)
	for li, head := range heads {
		for r := head; r >= 0; r = t.next[r] {
			build = append(build, r)
			probe = append(probe, int32(at(sel, li)))
		}
	}
	return build, probe
}

// marked sets dst to the physical index of every logical element of keys
// (through sel) that is not NULL and whose bit is set in the bitmap: the
// rows that can match, in order. Each index is written whatever its bit
// and kept by advancing past it only when the bit is set, so most probes,
// which miss, cost no mispredicted branch.
func (t *JoinTable) marked(keys *ColVec, sel []int32, dst []int32) []int32 {
	n := keys.Len()
	if sel != nil {
		n = len(sel)
	}
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	present, lo, span := t.present, t.lo, uint64(len(t.present))*64
	k := 0
	for li := range dst {
		i := at(sel, li)
		dst[k] = int32(i)
		if o := uint64(keys.I[i] - lo); o < span {
			k += int(present[o/64] >> (o % 64) & 1)
		}
	}
	dst = dst[:k]
	if keys.Nulls != nil {
		dst = slices.DeleteFunc(dst, func(i int32) bool { return keys.Nulls[i] })
	}
	return dst
}
