package expr_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

// TestGroupKeyInjective: tuples that differ — in a string's boundary, in
// arity, in kind under one display form — have different keys, each the
// oracle's.
func TestGroupKeyInjective(t *testing.T) {
	distinct := [][]Value{
		{String("x\x00"), String("y")}, // boundary-shifted string pairs
		{String("x"), String("\x00y")},
		{String("x\x00y")}, // different arity, same concatenated bytes
		{Int(1)},           // same display form, different kinds
		{String("1")},
		{Float(1)},
		{Bool(true)},
		{Date(1)},
		{Null()},
		{Int(0)},
		{Float(0)}, // Float(0) vs Int(0) are distinct groups
		{String("")},
		{},
	}
	seen := make(map[string]int)
	for i, tuple := range distinct {
		cols := make([]int, len(tuple))
		for c := range cols {
			cols[c] = c
		}
		assertKeysMatchOracle(t, keyBatch([]Row{tuple}), cols)
		k := oracle.GroupKey(tuple...)
		if j, dup := seen[k]; dup {
			t.Fatalf("tuples %v and %v share group key %q", distinct[j], distinct[i], k)
		}
		seen[k] = i
	}
}

func TestGroupKeyEqualTuplesAgree(t *testing.T) {
	row := Row{String("abc"), Int(-7), Null(), Float(2.5)}
	var g GroupKeys
	g.Build(keyBatch([]Row{row, row.Clone()}), []int{0, 1, 2, 3})
	if string(g.Key(0)) != string(g.Key(1)) {
		t.Fatal("equal tuples produced different keys")
	}
}

func TestGroupKeyInjectiveProperty(t *testing.T) {
	// Random pairs of (int,string) tuples: keys collide iff tuples equal.
	var g GroupKeys
	f := func(i1 int64, s1 string, i2 int64, s2 string) bool {
		g.Build(keyBatch([]Row{{Int(i1), String(s1)}, {Int(i2), String(s2)}}), []int{0, 1})
		return (string(g.Key(0)) == string(g.Key(1))) == (i1 == i2 && s1 == s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// keyBatch builds a batch from row-major tuples for GroupKeys tests.
func keyBatch(rows []Row) *Batch {
	if len(rows) == 0 {
		return NewBatch(0)
	}
	b := NewBatch(len(rows[0]))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// assertKeysMatchOracle requires the column-wise builder to reproduce the
// oracle's group key byte for byte on every logical row.
func assertKeysMatchOracle(t *testing.T, b *Batch, cols []int) {
	t.Helper()
	var g GroupKeys
	g.Build(b, cols)
	if g.Len() != b.Len() {
		t.Fatalf("built %d keys for %d logical rows", g.Len(), b.Len())
	}
	for li := 0; li < b.Len(); li++ {
		vals := make([]Value, len(cols))
		for k, c := range cols {
			vals[k] = b.Cols[c].Get(b.RowIdx(li))
		}
		if got, want := g.Key(li), oracle.GroupKey(vals...); string(got) != want {
			t.Fatalf("row %d: batch key %x, oracle key %x", li, got, want)
		}
	}
}

func TestGroupKeysBatchMatchesRowEncoding(t *testing.T) {
	dense := keyBatch([]Row{
		{Int(1), String("a"), Float(1.5), Date(42)},
		{Int(1), String(""), Float(-0.0), Date(0)},
		{Int(-9), String("x\x00y"), Float(2.5), Date(-3)},
		{Int(1 << 40), String("long-ish string value"), Float(0), Date(7)},
	})
	assertKeysMatchOracle(t, dense, []int{0, 1, 2, 3})
	assertKeysMatchOracle(t, dense, []int{1})
	assertKeysMatchOracle(t, dense, []int{3, 0})

	// Selection vectors: keys follow logical rows, not physical ones.
	sel := keyBatch([]Row{
		{Int(10), String("a")}, {Int(11), String("b")},
		{Int(12), String("c")}, {Int(13), String("d")},
	})
	sel.Sel = []int32{1, 3}
	assertKeysMatchOracle(t, sel, []int{0, 1})

	// NULLs in fixed-width and string columns.
	nulls := keyBatch([]Row{
		{Int(1), Null(), String("s")},
		{Null(), Float(2), Null()},
		{Int(3), Null(), String("")},
	})
	assertKeysMatchOracle(t, nulls, []int{0, 1, 2})

	// All-NULL column (vector kind stays KindNull).
	allNull := keyBatch([]Row{{Null(), Int(1)}, {Null(), Int(2)}})
	assertKeysMatchOracle(t, allNull, []int{0, 1})

	// Dictionary-coded strings, dense and under a selection.
	words := keyBatch([]Row{{String("ab")}, {String("")}, {String("zz")}, {String("ab")}})
	words.Cols[0].EncodeDict(testDict)
	assertKeysMatchOracle(t, words, []int{0})
	words.Sel = []int32{0, 2}
	assertKeysMatchOracle(t, words, []int{0})

	// Empty batch and empty column list.
	assertKeysMatchOracle(t, keyBatch(nil), nil)
	assertKeysMatchOracle(t, dense, nil)
}

func TestGroupKeysBuilderIsReusable(t *testing.T) {
	var g GroupKeys
	b1 := keyBatch([]Row{{String("first-long-key")}, {String("second")}})
	g.Build(b1, []int{0})
	k0 := string(g.Key(0))
	b2 := keyBatch([]Row{{Int(5)}})
	g.Build(b2, []int{0})
	if g.Len() != 1 {
		t.Fatalf("rebuild kept %d keys, want 1", g.Len())
	}
	if string(g.Key(0)) == k0 {
		t.Fatal("rebuild returned the previous batch's key")
	}
	if want := oracle.GroupKey(Int(5)); string(g.Key(0)) != want {
		t.Fatalf("rebuilt key %x, want %x", g.Key(0), want)
	}
}

// TestGroupKeysFoldNegativeZero requires -0 and +0, one value under
// Compare and ==, to share a group key on every encoding path — the dense
// float loop and the generic loop NULLs take — and that key to be the
// oracle's.
func TestGroupKeysFoldNegativeZero(t *testing.T) {
	if FloatKey(negZero()) != FloatKey(0) {
		t.Fatal("FloatKey tells -0 from +0")
	}
	for _, rows := range [][]Row{
		{{Float(0)}, {Float(negZero())}},
		{{Float(negZero())}, {Float(0)}, {Null()}},
	} {
		b := keyBatch(rows)
		assertKeysMatchOracle(t, b, []int{0})
		var g GroupKeys
		g.Build(b, []int{0})
		if string(g.Key(0)) != string(g.Key(1)) {
			t.Fatalf("rows %v: keys %x and %x differ", rows, g.Key(0), g.Key(1))
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestCompareKeysIsEncodedKeyOrder requires CompareKeys, column by column,
// to order random tuples exactly as their oracle group keys sort bytewise:
// the aggregation's emission order, now read off the typed payloads.
func TestCompareKeysIsEncodedKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0de7))
	for c := 0; c < 500; c++ {
		n := 1 + rng.Intn(12)
		cols := make([]*ColVec, 1+rng.Intn(3))
		for k := range cols {
			cols[k] = oracle.RandVec(rng, oracle.RandKind(rng, rng.Intn(3) > 0), n, testDicts[rng.Intn(2)])
		}
		key := func(i int) string {
			vals := make([]Value, len(cols))
			for k, v := range cols {
				vals[k] = v.Get(i)
			}
			return oracle.GroupKey(vals...)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := 0
				for _, v := range cols {
					if got = v.CompareKeys(int32(i), int32(j)); got != 0 {
						break
					}
				}
				if want := strings.Compare(key(i), key(j)); got != want {
					t.Fatalf("case %d: rows %d and %d compare %d, their oracle keys %x and %x %d", c, i, j, got, key(i), key(j), want)
				}
			}
		}
	}
}
