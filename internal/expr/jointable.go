package expr

// JoinTable indexes the key column of a hash join's build side in a
// KeyTable: each distinct key's id is the first build row carrying it, and
// next chains the rows of one key in build order. Two keys are equal
// exactly when the canonical Values are == — the kinds must match, -0
// equals +0, and neither NULL nor NaN equals anything: rows keyed by them
// enter no chain, so a probe key of either finds none. After
// BuildJoinTable returns the table is read-only and safe to probe from any
// number of goroutines, each with its own ProbeScratch.
type JoinTable struct {
	keys  [1]*ColVec // the build key column, which the table's ids address
	table KeyTable
	next  []int32 // per build row: the next row with its key, or -1
}

// ProbeScratch is one prober's per-batch buffers: the probe keys' hashes
// and the chain head each one finds.
type ProbeScratch struct {
	hashes []uint64
	heads  []int32
}

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
	hashes := HashKeys(nil, t.keys[:], rows, len(rows))
	heads := make([]int32, len(rows))
	t.table.reserve(len(rows))
	t.table.Resolve(hashes, t.keys[:], t.keys[:], rows, heads, func(r int) int32 { return int32(r) })
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
	n := keys.Len()
	if sel != nil {
		n = len(sel)
	}
	cols := [1]*ColVec{keys}
	s.hashes = HashKeys(s.hashes, cols[:], sel, n)
	if cap(s.heads) < n {
		s.heads = make([]int32, n)
	}
	heads := s.heads[:n]
	t.table.lookup(s.hashes, t.keys[:], cols[:], sel, heads)
	for li, head := range heads {
		for r := head; r >= 0; r = t.next[r] {
			build = append(build, r)
			probe = append(probe, int32(at(sel, li)))
		}
	}
	return build, probe
}
