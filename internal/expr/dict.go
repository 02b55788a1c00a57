package expr

import (
	"fmt"
	"sort"
	"sync"
)

// Dict is an order-preserving string dictionary: the distinct words of a
// column sorted ascending, so code order equals string order. That ordering
// is what lets range predicates over a dictionary-encoded column compile to
// integer code-range tests — `v < k` becomes `code < lowerBound(k)` — while
// equality becomes a single code comparison. Dictionaries are immutable
// once built and shared by every page vector of the column.
type Dict struct {
	words []string
	index map[string]int32

	hashOnce sync.Once
	hash     []uint64 // per code: its word's key hash, built on first use
}

// NewDict builds a dictionary from the given words, sorting and
// deduplicating them.
func NewDict(words []string) *Dict {
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, w := range sorted {
		if i == 0 || w != sorted[i-1] {
			uniq = append(uniq, w)
		}
	}
	d := &Dict{words: uniq, index: make(map[string]int32, len(uniq))}
	for i, w := range uniq {
		d.index[w] = int32(i)
	}
	return d
}

// Len returns the number of distinct words.
func (d *Dict) Len() int { return len(d.words) }

// Word returns the word for code c.
func (d *Dict) Word(c int32) string { return d.words[c] }

// Code returns the code of s, or false when s is not in the dictionary.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.index[s]
	return c, ok
}

// hashes returns each code's word hash (hashString), computing them on the
// first call: the one hash per word that key hashing reads by code.
func (d *Dict) hashes() []uint64 {
	d.hashOnce.Do(func() {
		d.hash = make([]uint64, len(d.words))
		for c, w := range d.words {
			d.hash[c] = hashString(w)
		}
	})
	return d.hash
}

// lowerBound returns the first code whose word is >= s (possibly Len()).
func (d *Dict) lowerBound(s string) int32 {
	return int32(sort.SearchStrings(d.words, s))
}

// upperBound returns the first code whose word is > s (possibly Len()).
func (d *Dict) upperBound(s string) int32 {
	return int32(sort.Search(len(d.words), func(i int) bool { return d.words[i] > s }))
}

// EncodeDict switches a dense string vector to the dictionary
// representation against d: the S payload is dropped and Codes holds one
// code per element (zero under NULLs). It reports false — leaving the
// vector untouched — when the vector is not a plain string column or some
// word is missing from d. Logical content is unchanged: Get returns the
// same canonical Values either way.
func (v *ColVec) EncodeDict(d *Dict) bool {
	return v.EncodeDictInto(d, make([]int32, v.n))
}

// EncodeDictInto is EncodeDict writing the codes into codes, which must
// hold exactly one element per vector element and becomes the vector's
// Codes: how a heap encodes all of a column's pages into one array. On
// false the vector is untouched, though codes may have been written.
func (v *ColVec) EncodeDictInto(d *Dict, codes []int32) bool {
	if v.Dict != nil || v.Kind != KindString {
		return false
	}
	if len(codes) != v.n {
		panic(fmt.Sprintf("expr: %d codes for a vector of %d elements", len(codes), v.n))
	}
	for i, s := range v.S {
		if v.Nulls != nil && v.Nulls[i] {
			codes[i] = 0
			continue
		}
		c, ok := d.Code(s)
		if !ok {
			return false
		}
		codes[i] = c
	}
	v.Codes = codes
	v.Dict = d
	v.S = nil
	return true
}

// undict materializes a dictionary vector back to the dense string
// representation — the escape hatch Append takes before mutating, so the
// append-side invariants never meet codes.
func (v *ColVec) undict() {
	s := make([]string, v.n, v.n+8)
	for i := range s {
		if v.Nulls == nil || !v.Nulls[i] {
			s[i] = v.Dict.words[v.Codes[i]]
		}
	}
	v.S = s
	v.Dict = nil
	v.Codes = nil
}
