package expr

// JoinTable indexes the key column of a hash join's build side: each
// distinct key maps to the first build row carrying it, and next chains the
// rows of one key in build order. Keys are normalised to their kind plus
// the 64-bit payload (or the string), and two keys are equal exactly when
// the canonical Values are == — the kinds must match, -0 equals +0, and
// neither NULL nor NaN equals anything, so rows keyed by them enter no
// chain. After BuildJoinTable returns the table is read-only and safe to
// probe from any number of goroutines.
type JoinTable struct {
	num  [KindDate + 1]map[uint64]int32 // per kind: payload bits → first build row
	str  map[string]int32
	next []int32 // per build row: the next row with its key, or -1
}

// BuildJoinTable indexes keys, one element per build row.
func BuildJoinTable(keys *ColVec) *JoinTable {
	n := keys.Len()
	t := &JoinTable{next: make([]int32, n)}
	tail := make([]int32, n) // per chain head: the chain's last row so far
	for r := range t.next {
		t.next[r] = -1
	}
	if keys.intKeys() {
		m := make(map[uint64]int32, n)
		t.num[keys.Kind] = m
		for r, v := range keys.I {
			chain(m, uint64(v), int32(r), t.next, tail)
		}
		return t
	}
	for r := 0; r < n; r++ {
		switch kind, bits, s := keys.joinKey(r); kind {
		case KindNull:
		case KindString:
			if t.str == nil {
				t.str = make(map[string]int32)
			}
			chain(t.str, s, int32(r), t.next, tail)
		default:
			if t.num[kind] == nil {
				t.num[kind] = make(map[uint64]int32)
			}
			chain(t.num[kind], bits, int32(r), t.next, tail)
		}
	}
	return t
}

// chain appends build row r to key k's chain, starting one if k is new.
func chain[K comparable](m map[K]int32, k K, r int32, next, tail []int32) {
	if head, ok := m[k]; ok {
		next[tail[head]] = r
		tail[head] = r
		return
	}
	m[k] = r
	tail[r] = r
}

// intKeys reports whether v is a NULL-free vector of one integer-payload
// kind — the join key of nearly every plan, which gets a loop of its own.
func (v *ColVec) intKeys() bool {
	return v.Nulls == nil && v.Kind != KindNull && v.Kind != KindFloat && v.Kind != KindString
}

// joinKey normalises element i to a join key: its kind and its payload bits
// or string. Keys that equal nothing — NULL, and NaN, which is not even
// equal to itself — come back as KindNull; -0 collapses onto +0.
func (v *ColVec) joinKey(i int) (Kind, uint64, string) {
	e := v.Get(i)
	switch e.Kind {
	case KindFloat:
		if e.F != e.F {
			return KindNull, 0, ""
		}
		return KindFloat, FloatKey(e.F), ""
	case KindString:
		return KindString, 0, e.S
	}
	return e.Kind, uint64(e.I), ""
}

// Probe looks every logical element of keys (sel nil = all of them) up in
// the table and appends one (build row, probe physical index) pair per
// match to build and probe — probe elements in order, each one's matches in
// build order, which is the order a nested loop over the two sides yields.
func (t *JoinTable) Probe(keys *ColVec, sel []int32, build, probe []int32) ([]int32, []int32) {
	n := keys.Len()
	if sel != nil {
		n = len(sel)
	}
	ints, heads := keys.intKeys(), t.num[keys.Kind]
	for li := 0; li < n; li++ {
		i := li
		if sel != nil {
			i = int(sel[li])
		}
		var head int32
		var ok bool
		if ints {
			head, ok = heads[uint64(keys.I[i])]
		} else {
			switch kind, bits, s := keys.joinKey(i); kind {
			case KindNull:
			case KindString:
				head, ok = t.str[s]
			default:
				head, ok = t.num[kind][bits]
			}
		}
		for r := head; ok && r >= 0; r = t.next[r] {
			build = append(build, r)
			probe = append(probe, int32(i))
		}
	}
	return build, probe
}
