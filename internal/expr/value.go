// Package expr provides typed row values and an expression tree with CPU
// cost accounting. Every expression evaluation charges an estimated cycle
// count to a Cost meter; the executor converts those cycles into simulated
// time and energy on the machine's CPU model. This is how "the same query
// plan" costs different energy under different PVC settings while still
// computing real answers over real rows.
package expr

import (
	"fmt"
	"strconv"
	"time"
)

// Kind is a value's type tag.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate // stored as days since 1970-01-01 in I
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union; using a struct rather than an interface
// avoids boxing millions of TPC-H column values.
type Value struct {
	Kind Kind
	I    int64 // Int, Date (days since epoch), Bool (0/1)
	F    float64
	S    string
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, S: s} }

// Date returns a date value from days since 1970-01-01.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// MustParseDate converts "YYYY-MM-DD" to a date value, panicking on
// malformed input (dates in this codebase are compile-time constants).
func MustParseDate(s string) Value {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(fmt.Sprintf("expr: bad date %q: %v", s, err))
	}
	return Date(t.Unix() / 86400)
}

// DateString renders a date value as "YYYY-MM-DD".
func (v Value) DateString() string {
	return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truthy reports whether a boolean value is true; NULL and non-booleans are
// false (SQL three-valued logic collapsed to two, which suffices for the
// paper's workloads).
func (v Value) Truthy() bool { return v.Kind == KindBool && v.I != 0 }

// AsFloat converts numeric values to float64 for arithmetic and
// aggregation.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return v.DateString()
	default:
		return fmt.Sprintf("Value{%d}", v.Kind)
	}
}

// numericKind reports whether k orders numerically under Compare — the
// single definition of the numeric class, shared by Compare and the typed
// filter kernels so the two can never diverge.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindDate || k == KindBool
}

// Compare orders two values of the same kind: -1, 0, or +1. Mixed numeric
// kinds (int vs float) compare numerically. NULL sorts before everything.
// Incomparable kinds panic: schema errors are programming bugs here.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	case numericKind(a.Kind) && numericKind(b.Kind):
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("expr: cannot compare %v with %v", a.Kind, b.Kind))
	}
}

// Bytes estimates the in-page storage footprint of the value, used by the
// buffer pool for page sizing.
func (v Value) Bytes() int64 {
	switch v.Kind {
	case KindString:
		return int64(len(v.S)) + 2
	case KindNull:
		return 1
	default:
		return 8
	}
}

// Row is one tuple.
type Row []Value

// Bytes estimates the tuple's storage footprint.
func (r Row) Bytes() int64 {
	var n int64 = 4 // header
	for _, v := range r {
		n += v.Bytes()
	}
	return n
}

// Clone returns a deep-enough copy (values are immutable; the slice is
// copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
