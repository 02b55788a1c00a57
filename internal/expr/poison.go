package expr

import "math"

// Poisoned payloads. A buffer handed back for reuse may first be
// overwritten with values no statement computes, so that whoever reads it
// after giving it back finds garbage that fails loudly — an answer that
// cannot match, an index out of range — instead of the values it held,
// which a rerun of the same statement would read back unchanged. Poison
// keeps lengths and capacities: only what the elements say changes.
const (
	// PoisonInt overwrites int64 payloads: integers, dates, bools, counts.
	PoisonInt int64 = -0x0badc0de0badc0de
	// PoisonID overwrites ids, row indexes and selections: past the end of
	// any buffer the process can hold.
	PoisonID int32 = math.MaxInt32
	// PoisonString overwrites string payloads.
	PoisonString = "\x00poisoned\x00"
)

// PoisonFloat overwrites float payloads: a NaN whose payload bits mark it
// as poison, which no arithmetic on TPC-H values produces.
var PoisonFloat = math.Float64frombits(0x7ff8_0bad_c0de_0bad)

// PoisonInts overwrites every element of s with PoisonInt.
func PoisonInts(s []int64) {
	for i := range s {
		s[i] = PoisonInt
	}
}

// PoisonIDs overwrites every element of s with PoisonID.
func PoisonIDs(s []int32) {
	for i := range s {
		s[i] = PoisonID
	}
}

// PoisonFloats overwrites every element of s with PoisonFloat.
func PoisonFloats(s []float64) {
	for i := range s {
		s[i] = PoisonFloat
	}
}

// Poison overwrites v's elements: every payload it holds, NULL bits all
// set, dictionary codes out of range. The dictionary itself is shared and
// left alone.
func (v *ColVec) Poison() {
	PoisonInts(v.I)
	PoisonFloats(v.F)
	for i := range v.S {
		v.S[i] = PoisonString
	}
	PoisonIDs(v.Codes)
	for i := range v.Nulls {
		v.Nulls[i] = true
	}
}

// Poison overwrites every vector b keeps, past its width too, and its
// selection.
func (b *Batch) Poison() {
	cols := b.Cols[:cap(b.Cols)]
	for i := range cols {
		cols[i].Poison()
	}
	PoisonIDs(b.Sel)
}

// Poison overwrites the id of every stored key with one out of range,
// keeping the tags, so a lookup still ends and then reads past its keys.
func (t *KeyTable) Poison() {
	for p, s := range t.slots {
		if s != 0 {
			t.slots[p] = s>>32<<32 | uint64(uint32(PoisonID))
		}
	}
}

// Poison overwrites the table's ids, chains and bitmap and drops its key
// column, so a probe of a released table fails.
func (t *JoinTable) Poison() {
	t.table.Poison()
	PoisonIDs(t.next)
	PoisonIDs(t.rows)
	PoisonIDs(t.heads)
	PoisonIDs(t.tail)
	for i := range t.present {
		t.present[i] = math.MaxUint64
	}
	t.keys[0] = nil
}
