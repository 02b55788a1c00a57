// Package oracle holds one boxed, row-at-a-time definition of each fact
// the engine's typed code must reproduce, for differential tests to compare
// against:
//
//   - group-key identity and the order of encoded group keys (GroupKey),
//     and join-key equality (JoinMatches);
//   - a column's zone over its values, and whether a predicate prunes a
//     page by its zones (Zone, Prunes);
//   - a table's column statistics: the zone of each column plus its exact
//     distinct count (Stats);
//   - the evaluation of a plan, with the cardinalities its operators see
//     (Eval);
//   - the seeded value, vector and table generators property tests draw
//     their inputs from (gen.go).
//
// Every definition works on expr.Values, one at a time, with expr.Compare
// as the order of values; none reads a typed payload, a hash table or a
// heap's zones. Only tests import this package (TestOnlyTestsImportOracle),
// and it imports nothing of the engine but expr, plan, catalog and storage,
// so the in-package tests of any package but those four can import it.
package oracle

import (
	"encoding/binary"
	"math"

	"ecodb/internal/expr"
)

// GroupKey returns the encoded group key of a tuple of values. Each value
// contributes its kind tag, then nothing for NULL, the 8-byte
// little-endian payload of a bool, integer or date, the bits of a float
// with -0 taken as +0, or the 8-byte length and the bytes of a string.
//
// Two tuples are one group exactly when their keys are equal: one NULL
// group, -0 with +0, a NaN only with a NaN of the same bits, and values of
// different kinds never together. An aggregation emits its groups in the
// byte order of their keys.
func GroupKey(vals ...expr.Value) string {
	var b []byte
	for _, v := range vals {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case expr.KindNull:
		case expr.KindFloat:
			f := v.F
			if f == 0 {
				f = 0 // -0 is +0
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		case expr.KindString:
			b = binary.LittleEndian.AppendUint64(b, uint64(len(v.S)))
			b = append(b, v.S...)
		default:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
		}
	}
	return string(b)
}

// JoinMatches reports whether a build row's key matches a probe row's:
// Value equality, under which the kinds must match, NULL and NaN equal
// nothing, and -0 equals +0.
func JoinMatches(build, probe expr.Value) bool {
	return !build.IsNull() && build == probe
}

// SameValue reports whether a and b are one value down to the float's
// bits: NaN equals a NaN of the same bits, and -0 differs from +0.
func SameValue(a, b expr.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}
