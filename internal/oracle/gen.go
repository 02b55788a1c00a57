package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/storage"
)

// Seeded generators of the inputs property tests draw: values, vectors and
// selections for expr's kernels, and whole tables for exec's operators.
// Each draws from small domains, so values tie often, and mixes in the
// values where an order or an identity is delicate: NULL, -0, ±Inf, NaN,
// and integers beyond 2⁵³, where distinct ints share a float64.

// RandKind draws a column kind of the given class: one of the four numeric
// kinds, or String.
func RandKind(rng *rand.Rand, numeric bool) expr.Kind {
	if !numeric {
		return expr.KindString
	}
	return []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindDate, expr.KindBool}[rng.Intn(4)]
}

// RandValue draws a value of the given class, NULL with probability
// nullFrac: numeric classes mix Int, Float, Date and Bool (so a constant is
// often of another numeric kind than the column it meets), string classes
// draw short strings.
func RandValue(rng *rand.Rand, numeric bool, nullFrac float64) expr.Value {
	if rng.Float64() < nullFrac {
		return expr.Null()
	}
	if numeric {
		return RandKindValue(rng, RandKind(rng, true))
	}
	return expr.String(letters[rng.Intn(len(letters))])
}

// letters are the strings RandValue draws; RandKindValue leaves out the
// last.
var letters = []string{"", "a", "ab", "abc", "b", "ba", "zz", "\x00x"}

// RandKindValue draws a non-NULL value of one fixed kind.
func RandKindValue(rng *rand.Rand, kind expr.Kind) expr.Value {
	switch kind {
	case expr.KindInt:
		return expr.Int(int64(rng.Intn(20) - 10))
	case expr.KindFloat:
		return expr.Float(float64(rng.Intn(40))/4 - 5)
	case expr.KindDate:
		return expr.Date(int64(rng.Intn(30) + 9000))
	case expr.KindBool:
		return expr.Bool(rng.Intn(2) == 0)
	default:
		return expr.String(letters[rng.Intn(len(letters)-1)])
	}
}

// RandColumn draws n values of kind in one random shape: dense, with
// NULLs, or a third — numerics mostly NULL (short columns often entirely),
// strings over a wider alphabet with NULLs.
func RandColumn(rng *rand.Rand, kind expr.Kind, n int) []expr.Value {
	shape := rng.Intn(3)
	vals := make([]expr.Value, n)
	for i := range vals {
		switch {
		case shape == 1 && rng.Float64() < 0.3, shape == 2 && kind != expr.KindString && rng.Float64() < 0.8:
			vals[i] = expr.Null()
		case shape == 2 && kind == expr.KindString:
			vals[i] = RandValue(rng, false, 0.2)
		default:
			vals[i] = RandKindValue(rng, kind)
		}
	}
	return vals
}

// RandVec builds a vector of kind in a RandColumn shape, or all NULL, with
// the edge values mixed in — -0, ±Inf and NaN among floats, ints on both
// sides of ±2⁵³ — and, for strings, dictionary-encoded against dict half
// the time.
func RandVec(rng *rand.Rand, kind expr.Kind, n int, dict *expr.Dict) *expr.ColVec {
	vals := RandColumn(rng, kind, n)
	allNull := rng.Intn(8) == 0
	v := &expr.ColVec{}
	for _, val := range vals {
		switch {
		case allNull:
			val = expr.Null()
		case val.Kind == expr.KindFloat && rng.Intn(6) == 0:
			val.F = []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
		case val.Kind == expr.KindInt && rng.Intn(6) == 0:
			const big = int64(1) << 53
			val.I = []int64{big - 1, big, big + 1, big + 2, -big - 1, -big}[rng.Intn(6)]
		}
		v.Append(val)
	}
	if kind == expr.KindString && rng.Intn(2) == 0 {
		v.EncodeDict(dict)
	}
	return v
}

// RandSel draws an input selection over n rows: nil (all rows) half the
// time, otherwise a random ascending subset, possibly empty.
func RandSel(rng *rand.Rand, n int) []int32 {
	if rng.Intn(2) == 0 {
		return nil
	}
	sel := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// Table is a generated table and what its columns hold.
type Table struct {
	*catalog.Table
	Cols []Col
}

// Col describes one generated column.
type Col struct {
	Kind   expr.Kind
	HasNaN bool
}

var tableWords = []string{"", "a", "ab", "b", "kappa", "zeta", "zeta!"}

// RandTable generates a table of two to four Int, Float, String or Date
// columns and up to 15 × storage.DefaultMorselRunLength rows (none, one
// time in twenty). Its pages hold one row to about twenty, so most tables
// span several morsel runs (and run pooled at two or more workers), about
// a fifth fit in one, and the longest span fifteen. A column is NULL-free,
// about 15 % NULL, or entirely NULL. Ints are mostly 0..4 and sometimes
// -50..49, and an int column is sometimes nothing but 2⁵³..2⁵³+3, which
// tie in pairs as floats. Floats take ±0, NaN, 1e10/3 or a few small
// values; strings a small alphabet, dictionary-encoded half the time;
// dates four days. Values of one kind are drawn as RandConst draws them,
// so joins and comparisons with constants match often.
func RandTable(rng *rand.Rand, name string) Table {
	kinds := []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindString, expr.KindDate}
	width := 2 + rng.Intn(3)
	cols := make([]Col, width)
	schema := make([]catalog.Column, width)
	nullP := make([]float64, width)
	bigInts := make([]bool, width)
	for c := range cols {
		bigInts[c] = rng.Intn(5) == 0
		cols[c].Kind = kinds[rng.Intn(len(kinds))]
		schema[c] = catalog.Column{Name: fmt.Sprintf("%s%d", name, c), Kind: cols[c].Kind}
		nullP[c] = []float64{0, 0, 0.15, 0.15, 1}[rng.Intn(5)]
	}
	tb := &catalog.Table{Name: name, Schema: catalog.NewSchema(schema...),
		Heap: storage.NewHeap(int64(20 + rng.Intn(100)))}
	n := 0
	if rng.Intn(20) > 0 {
		n = 1 + rng.Intn(15*storage.DefaultMorselRunLength)
	}
	for i := 0; i < n; i++ {
		row := make(expr.Row, width)
		for c := range row {
			if rng.Float64() < nullP[c] {
				continue // the zero Value is NULL
			}
			switch cols[c].Kind {
			case expr.KindInt:
				switch r := rng.Intn(10); {
				case r == 0 || bigInts[c]:
					row[c] = expr.Int(1<<53 + int64(rng.Intn(4)))
				case r <= 2:
					row[c] = expr.Int(int64(rng.Intn(100) - 50))
				default:
					row[c] = expr.Int(int64(rng.Intn(5)))
				}
			case expr.KindFloat:
				switch rng.Intn(12) {
				case 0:
					row[c] = expr.Float(math.Copysign(0, -1))
				case 1:
					row[c] = expr.Float(0)
				case 2:
					row[c], cols[c].HasNaN = expr.Float(math.NaN()), true
				case 3:
					row[c] = expr.Float(1e10 / 3)
				default:
					row[c] = RandConst(rng, expr.KindFloat)
				}
			default:
				row[c] = RandConst(rng, cols[c].Kind)
			}
		}
		tb.Insert(row)
	}
	if rng.Intn(2) == 0 {
		tb.Heap.CompressStrings()
	}
	return Table{Table: tb, Cols: cols}
}

// RandConst draws a non-NULL value of kind k from RandTable's domain for
// it.
func RandConst(rng *rand.Rand, k expr.Kind) expr.Value {
	switch k {
	case expr.KindString:
		return expr.String(tableWords[rng.Intn(len(tableWords))])
	case expr.KindDate:
		return expr.Date(int64(9000 + rng.Intn(4)))
	case expr.KindFloat:
		return expr.Float(float64(rng.Intn(7))*0.37 - 1)
	}
	return expr.Int(int64(rng.Intn(5)))
}
