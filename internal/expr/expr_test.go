package expr_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

func TestValueConstructors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Bool(true), KindBool},
		{Int(42), KindInt},
		{Float(3.14), KindFloat},
		{String("x"), KindString},
		{Date(100), KindDate},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("constructor produced kind %v, want %v", c.v.Kind, c.kind)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	v := MustParseDate("1994-01-01")
	if got := v.DateString(); got != "1994-01-01" {
		t.Fatalf("DateString = %q", got)
	}
	if MustParseDate("1970-01-01").I != 0 {
		t.Fatal("epoch should be day 0")
	}
	if MustParseDate("1970-01-02").I != 1 {
		t.Fatal("epoch+1 should be day 1")
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad date did not panic")
		}
	}()
	MustParseDate("not-a-date")
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Null(), Int(1), -1},
		{Int(1), Null(), 1},
		{Null(), Null(), 0},
		{Date(10), Date(20), -1},
		{Bool(false), Bool(true), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("comparing string with int did not panic")
		}
	}()
	Compare(String("a"), Int(1))
}

func TestTruthy(t *testing.T) {
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Fatal("Bool truthiness wrong")
	}
	if Null().Truthy() || Int(1).Truthy() {
		t.Fatal("non-bool values must not be truthy")
	}
}

// Row.Bytes is 4 header bytes plus each value's Value.Bytes, and
// Batch.RowBytes is Row.Bytes of each row and Batch.Bytes its sum over the
// batch's logical rows, whatever
// the columns' representation (dense, NULL-bearing, all NULL,
// dictionary-encoded) and with or without a selection.
func TestRowBytes(t *testing.T) {
	r := Row{Int(1), String("hello"), Null()}
	// 4 header + 8 + (5+2) + 1 = 20.
	if got := r.Bytes(); got != 20 {
		t.Fatalf("Row.Bytes = %d, want 20", got)
	}

	rng := rand.New(rand.NewSource(59))
	for c := 0; c < 2000; c++ {
		n := rng.Intn(25)
		b := NewBatch(1 + rng.Intn(4))
		for col := range b.Cols {
			b.Cols[col] = *oracle.RandVec(rng, oracle.RandKind(rng, rng.Intn(2) == 0), n, testDict)
		}
		b.N, b.Sel = n, oracle.RandSel(rng, n)
		var want int64
		for li, row := range b.Rows() {
			want += row.Bytes()
			if got := b.RowBytes(b.RowIdx(li)); got != row.Bytes() {
				t.Fatalf("case %d row %d: Batch.RowBytes = %d, want %d", c, li, got, row.Bytes())
			}
		}
		if got := b.Bytes(); got != want {
			t.Fatalf("case %d: Batch.Bytes = %d, want %d over %d rows", c, got, want, b.Len())
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Int(2)}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].I != 1 {
		t.Fatal("Clone did not copy")
	}
}

func testRow() Row {
	return Row{Int(10), Float(2.5), String("ASIA"), Date(100)}
}

func TestColEval(t *testing.T) {
	var cost Cost
	v := Col{Idx: 2, Name: "r_name"}.Eval(testRow(), &cost)
	if v.S != "ASIA" {
		t.Fatalf("Col eval = %v", v)
	}
	if cost.Cycles != CyclesColRef {
		t.Fatalf("cost = %v, want %v", cost.Cycles, CyclesColRef)
	}
}

func TestCmpOperators(t *testing.T) {
	row := testRow()
	col := Col{Idx: 0}
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{EQ, 10, true}, {EQ, 11, false},
		{NE, 11, true}, {NE, 10, false},
		{LT, 11, true}, {LT, 10, false},
		{LE, 10, true}, {LE, 9, false},
		{GT, 9, true}, {GT, 10, false},
		{GE, 10, true}, {GE, 11, false},
	}
	for _, c := range cases {
		got := Cmp{Op: c.op, L: col, R: Const{V: Int(c.rhs)}}.Eval(row, nil)
		if got.Truthy() != c.want {
			t.Errorf("10 %v %d = %v, want %v", c.op, c.rhs, got.Truthy(), c.want)
		}
	}
}

func TestCmpNullIsFalse(t *testing.T) {
	got := Cmp{Op: EQ, L: Const{V: Null()}, R: Const{V: Int(1)}}.Eval(nil, nil)
	if got.Truthy() {
		t.Fatal("NULL = 1 should be false")
	}
}

func TestBetweenHalfOpen(t *testing.T) {
	col := Col{Idx: 3}
	b := Between{E: col, Lo: Date(100), Hi: Date(200)}
	if !b.Eval(testRow(), nil).Truthy() {
		t.Fatal("lower bound should be inclusive")
	}
	b2 := Between{E: col, Lo: Date(50), Hi: Date(100)}
	if b2.Eval(testRow(), nil).Truthy() {
		t.Fatal("upper bound should be exclusive")
	}
}

func TestAndOrShortCircuitCost(t *testing.T) {
	row := testRow()
	tr := Cmp{Op: EQ, L: Col{Idx: 0}, R: Const{V: Int(10)}}
	fa := Cmp{Op: EQ, L: Col{Idx: 0}, R: Const{V: Int(11)}}

	var cheap, dear Cost
	// Or stops at the first true term.
	if !(Or{Terms: []Expr{tr, fa, fa}}).Eval(row, &cheap).Truthy() {
		t.Fatal("or should be true")
	}
	if !(Or{Terms: []Expr{fa, fa, tr}}).Eval(row, &dear).Truthy() {
		t.Fatal("or should be true")
	}
	if cheap.Cycles >= dear.Cycles {
		t.Fatalf("short-circuit OR should cost less when the match is first: %v vs %v",
			cheap.Cycles, dear.Cycles)
	}

	// And stops at the first false term.
	var a1, a2 Cost
	And{Terms: []Expr{fa, tr, tr}}.Eval(row, &a1)
	And{Terms: []Expr{tr, tr, fa}}.Eval(row, &a2)
	if a1.Cycles >= a2.Cycles {
		t.Fatal("short-circuit AND should cost less when the false term is first")
	}
}

// The QED-relevant property: evaluating an N-term OR over a non-matching
// row costs Θ(N), while the hash-set variant is O(1).
func TestOrChainLinearInTermsHashSetConstant(t *testing.T) {
	row := Row{Int(999)}
	col := Col{Idx: 0}
	mkOr := func(n int) Or {
		terms := make([]Expr, n)
		for i := range terms {
			terms[i] = Cmp{Op: EQ, L: col, R: Const{V: Int(int64(i))}}
		}
		return Or{Terms: terms}
	}
	var c10, c50 Cost
	mkOr(10).Eval(row, &c10)
	mkOr(50).Eval(row, &c50)
	if ratio := c50.Cycles / c10.Cycles; ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("OR cost ratio 50/10 terms = %v, want ≈5", ratio)
	}

	mkIn := func(n int) *InHash {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Int(int64(i))
		}
		return NewInHash(col, vals)
	}
	var h10, h50 Cost
	mkIn(10).Eval(row, &h10)
	mkIn(50).Eval(row, &h50)
	if h10.Cycles != h50.Cycles {
		t.Fatalf("hash-set cost should not depend on set size: %v vs %v", h10.Cycles, h50.Cycles)
	}
}

func TestInHashMembership(t *testing.T) {
	in := NewInHash(Col{Idx: 0}, []Value{Int(1), Int(5), Int(9)})
	if !in.Eval(Row{Int(5)}, nil).Truthy() {
		t.Fatal("5 should be in the set")
	}
	if in.Eval(Row{Int(4)}, nil).Truthy() {
		t.Fatal("4 should not be in the set")
	}
}

func TestArith(t *testing.T) {
	row := Row{Float(10), Float(4)}
	cases := []struct {
		op   ArithOp
		want float64
	}{
		{Add, 14}, {Sub, 6}, {Mul, 40}, {Div, 2.5},
	}
	for _, c := range cases {
		got := Arith{Op: c.op, L: Col{Idx: 0}, R: Col{Idx: 1}}.Eval(row, nil)
		if got.F != c.want {
			t.Errorf("10 %v 4 = %v, want %v", c.op, got.F, c.want)
		}
	}
}

func TestArithDivByZeroIsNull(t *testing.T) {
	got := Arith{Op: Div, L: Const{V: Float(1)}, R: Const{V: Float(0)}}.Eval(nil, nil)
	if !got.IsNull() {
		t.Fatalf("1/0 = %v, want NULL", got)
	}
}

func TestArithNullPropagates(t *testing.T) {
	got := Arith{Op: Add, L: Const{V: Null()}, R: Const{V: Float(1)}}.Eval(nil, nil)
	if !got.IsNull() {
		t.Fatal("NULL + 1 should be NULL")
	}
}

func TestNot(t *testing.T) {
	if (Not{E: Const{V: Bool(true)}}).Eval(nil, nil).Truthy() {
		t.Fatal("NOT true should be false")
	}
	if !(Not{E: Const{V: Bool(false)}}).Eval(nil, nil).Truthy() {
		t.Fatal("NOT false should be true")
	}
}

func TestCostDrain(t *testing.T) {
	var c Cost
	c.Add(5)
	c.Add(7)
	if got := c.Drain(); got != 12 {
		t.Fatalf("Drain = %v", got)
	}
	if c.Cycles != 0 {
		t.Fatal("Drain did not reset")
	}
}

func TestNilCostSafe(t *testing.T) {
	var c *Cost
	c.Add(5) // must not panic
}

func TestStringRendering(t *testing.T) {
	e := Cmp{Op: EQ, L: Col{Idx: 0, Name: "l_quantity"}, R: Const{V: Int(7)}}
	if got := e.String(); got != "(l_quantity = 7)" {
		t.Fatalf("String = %q", got)
	}
	o := Or{Terms: []Expr{e, e}}
	if got := o.String(); got != "((l_quantity = 7) OR (l_quantity = 7))" {
		t.Fatalf("Or.String = %q", got)
	}
}

// Property: Compare is antisymmetric and reflexive over ints and floats.
func TestComparePropertyAntisymmetric(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Int(int64(a)), Int(int64(b))
		return Compare(va, vb) == -Compare(vb, va) && Compare(va, va) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a Between over [lo, hi) agrees with the conjunction of two
// comparisons.
func TestBetweenEquivalence(t *testing.T) {
	f := func(v, lo, hi int16) bool {
		row := Row{Int(int64(v))}
		b := Between{E: Col{Idx: 0}, Lo: Int(int64(lo)), Hi: Int(int64(hi))}.Eval(row, nil).Truthy()
		c := v >= lo && v < hi
		return b == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EvalCycles restates what Eval meters, for estimating before running: on a
// row that short-circuits nothing (every AND term true, every OR term
// false) the two must agree node for node.
func TestEvalCyclesIsWhatEvalMeters(t *testing.T) {
	row := Row{Int(7), String("ship"), Float(2.5)}
	i, s, f := Col{Idx: 0}, Col{Idx: 1}, Col{Idx: 2}
	for _, e := range []Expr{
		i,
		Const{V: Int(1)},
		Cmp{Op: LT, L: i, R: Const{V: Int(9)}},
		Cmp{Op: EQ, L: s, R: Const{V: String("ship")}},
		Cmp{Op: GT, L: Const{V: String("rail")}, R: s},
		Cmp{Op: GT, L: Arith{Op: Mul, L: f, R: Const{V: Float(2)}}, R: f},
		Between{E: i, Lo: Int(0), Hi: Int(10)},
		NewInHash(i, []Value{Int(7), Int(8)}),
		Not{E: Cmp{Op: EQ, L: i, R: Const{V: Int(8)}}},
		And{Terms: []Expr{
			Cmp{Op: GE, L: i, R: Const{V: Int(7)}},
			Between{E: f, Lo: Float(0), Hi: Float(3)},
			Cmp{Op: NE, L: s, R: Const{V: String("rail")}},
		}},
		Or{Terms: []Expr{
			Cmp{Op: EQ, L: i, R: Const{V: Int(1)}},
			And{Terms: []Expr{Cmp{Op: EQ, L: i, R: Const{V: Int(7)}}, Cmp{Op: LT, L: f, R: Const{V: Float(1)}}}},
		}},
	} {
		var cost Cost
		e.Eval(row, &cost)
		if got := EvalCycles(e); got != cost.Cycles {
			t.Errorf("%s: EvalCycles = %v, Eval metered %v", e, got, cost.Cycles)
		}
	}
}

func TestRemapCoversAllNodes(t *testing.T) {
	in := And{Terms: []Expr{
		Not{E: Cmp{Op: EQ, L: Col{Idx: 1}, R: Const{V: Int(1)}}},
		Or{Terms: []Expr{
			Between{E: Col{Idx: 2}, Lo: Int(0), Hi: Int(9)},
			NewInHash(Col{Idx: 3}, []Value{Int(4)}),
		}},
		Cmp{Op: LT, L: Arith{Op: Add, L: Col{Idx: 4}, R: Const{V: Int(2)}}, R: Col{Idx: 5}},
	}}
	out := Remap(in, func(i int) int { return i + 10 })
	if got, want := AppendCols(nil, out), []int{11, 12, 13, 14, 15}; !slices.Equal(got, want) {
		t.Fatalf("cols = %v, want %v", got, want)
	}
	if out.String() == in.String() {
		t.Fatalf("remap changed no column: %s", out)
	}
	// The original is untouched.
	if got, want := AppendCols(nil, in), []int{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("original mutated: cols = %v, want %v", got, want)
	}
}

// TestRemapKeepsInHashDescription: a hash-set membership test keeps its
// display text through a column remap, so a lowered merged selection
// renders as the merge built it.
func TestRemapKeepsInHashDescription(t *testing.T) {
	in := NewInHash(Col{Idx: 0, Name: "a"}, []Value{Int(1), Int(2)})
	got := Remap(in, func(i int) int { return i + 3 })
	if got.String() != in.String() {
		t.Fatalf("remapped %q, want %q", got, in)
	}
	if c := AppendCols(nil, got); len(c) != 1 || c[0] != 3 {
		t.Fatalf("remapped columns %v, want [3]", c)
	}
}

// unknownExpr is an Expr node the walkers do not know.
type unknownExpr struct{ Const }

// TestWalkersPanicOnAnUnknownNode: a node AppendCols or Remap cannot see
// into is a bug to surface, not a column set to guess.
func TestWalkersPanicOnAnUnknownNode(t *testing.T) {
	for name, walk := range map[string]func(){
		"AppendCols": func() { AppendCols(nil, Not{E: unknownExpr{}}) },
		"Remap":      func() { Remap(Not{E: unknownExpr{}}, func(i int) int { return i }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an unknown node", name)
				}
			}()
			walk()
		}()
	}
}
