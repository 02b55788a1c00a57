package expr_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	. "ecodb/internal/expr"
	"ecodb/internal/oracle"
)

// Property tests for batch-wise evaluation: every step of a compiled Filter
// — the column-vs-constant, column-vs-column, Between and InHash loops, the
// integer-domain comparisons, the And/Or/Not cascades
// over them and the per-leaf Eval fallback — must agree EXACTLY — selected
// physical indices and charged cycles — with row-at-a-time evaluation of
// the same predicate, across random batches covering dense, NULL-bearing,
// all-NULL, dictionary-encoded and selection-carrying inputs. The row
// interpreter is the oracle.

// randBatch builds a random one-column batch of an oracle.RandColumn
// shape; half carry an input selection vector.
func randBatch(rng *rand.Rand, numeric bool) *Batch {
	b := NewBatch(1)
	n := rng.Intn(60) + 1
	for _, v := range oracle.RandColumn(rng, oracle.RandKind(rng, numeric), n) {
		b.AppendRow(Row{v})
	}
	if rng.Intn(2) == 0 { // carry an input selection: every other row
		sel := make([]int32, 0, n)
		for i := 0; i < n; i += 2 {
			sel = append(sel, int32(i))
		}
		b.Sel = sel
	}
	return b
}

// randPred draws one of the three fast-path predicate shapes over column 0,
// matched to the batch's value class so Compare never sees incomparable
// kinds.
func randPred(rng *rand.Rand, numeric bool) Expr {
	col := Col{Idx: 0, Name: "c"}
	konst := func() Value {
		// NULL constants sometimes, to cover the all-dropped path.
		return oracle.RandValue(rng, numeric, 0.1)
	}
	switch rng.Intn(3) {
	case 0:
		op := CmpOp(rng.Intn(6))
		return Cmp{Op: op, L: col, R: Const{V: konst()}}
	case 1:
		return Between{E: col, Lo: konst(), Hi: konst()}
	default:
		vals := make([]Value, rng.Intn(5)+1)
		for i := range vals {
			vals[i] = oracle.RandValue(rng, numeric, 0.1)
		}
		return NewInHash(col, vals)
	}
}

// constFirst swaps a comparison of a column with a constant to compare the
// constant with the column, the shape `WHERE 5 < l_quantity` binds to; any
// other predicate it returns as it is.
func constFirst(pred Expr) Expr {
	if c, ok := pred.(Cmp); ok {
		if _, ok := c.R.(Const); ok {
			c.L, c.R = c.R, c.L
			return c
		}
	}
	return pred
}

// randTreeBatch builds a random four-column batch for the predicate-tree
// tests: two numeric columns and two string columns, each of its own
// oracle.RandColumn shape, the second string column dictionary-encoded half
// the time, under an oracle.RandSel input selection.
func randTreeBatch(rng *rand.Rand) *Batch {
	n := rng.Intn(60) + 1
	b := &Batch{Cols: make([]ColVec, 4), N: n}
	for c := range b.Cols {
		for _, v := range oracle.RandColumn(rng, oracle.RandKind(rng, c < 2), n) {
			b.Cols[c].Append(v)
		}
	}
	if vec := &b.Cols[3]; rng.Intn(2) == 0 && vec.Kind == KindString {
		var words []string
		for i := 0; i < n; i++ {
			if v := vec.Get(i); v.Kind == KindString {
				words = append(words, v.S)
			}
		}
		vec.EncodeDict(NewDict(words))
	}
	b.Sel = oracle.RandSel(rng, n)
	return b
}

// randLeaf draws a leaf over randTreeBatch's columns: one of the three
// column-vs-constant kernel shapes on a random column — a comparison with
// its constant first half the time — a column-vs-column
// comparison — a kernel over two NULL-free numeric columns, the fallback
// otherwise — or an equality chain (randEqChain). Constants match the
// column's class so Compare never sees incomparable kinds.
func randLeaf(rng *rand.Rand, in *Batch) Expr {
	c := rng.Intn(4)
	numeric := c < 2
	col := Col{Idx: c}
	konst := func() Value { return oracle.RandValue(rng, numeric, 0.1) }
	switch rng.Intn(5) {
	case 0:
		cmp := Cmp{Op: CmpOp(rng.Intn(6)), L: col, R: Const{V: konst()}}
		if rng.Intn(2) == 0 {
			return constFirst(cmp)
		}
		return cmp
	case 1:
		return Between{E: col, Lo: konst(), Hi: konst()}
	case 2:
		vals := make([]Value, rng.Intn(5)+1)
		for i := range vals {
			vals[i] = konst()
		}
		return NewInHash(col, vals)
	case 3:
		return Cmp{Op: CmpOp(rng.Intn(6)), L: col, R: Col{Idx: c ^ 1}}
	default:
		return randEqChain(rng, in, c)
	}
}

// randEqChain draws an IN list as the binder lowers it — an Or of 2–6
// equalities of column c with constants — alone, under a NOT (taken through
// the mark-array complement), or after a narrowing AND term. Constants
// repeat, are taken from the batch or drawn independently (mostly absent
// from it), and over a numeric column are floats as often as not: integral
// ones equal to an element, and ones halfway between integers, which the
// integer domain decides without a row. The column's own shape decides
// which loop a term takes: NULL-free integer pages the integer-domain
// loop, float pages the float loop, NULL-bearing pages the per-row
// fallback.
func randEqChain(rng *rand.Rand, in *Batch, c int) Expr {
	vec := &in.Cols[c]
	numeric := c < 2
	terms := make([]Expr, rng.Intn(5)+2)
	for j := range terms {
		k := oracle.RandValue(rng, numeric, 0.05)
		switch r := rng.Intn(6); {
		case r == 0 && j > 0:
			k = terms[rng.Intn(j)].(Cmp).R.(Const).V
		case r <= 2 && vec.Len() > 0:
			if v := vec.Get(rng.Intn(vec.Len())); v.Kind != KindNull {
				k = v
			}
			if numeric && k.Kind != KindFloat && rng.Intn(2) == 0 {
				k = Float(k.AsFloat())
			}
		case r == 3 && numeric:
			k = Float(float64(rng.Intn(20)-10) + 0.5)
		}
		terms[j] = Cmp{Op: EQ, L: Col{Idx: c}, R: Const{V: k}}
	}
	var chain Expr = Or{Terms: terms}
	switch rng.Intn(3) {
	case 1:
		return Not{E: chain}
	case 2:
		return And{Terms: []Expr{randLeaf(rng, in), chain}}
	}
	return chain
}

// randTree draws a predicate tree of And/Or/Not over randLeaf leaves, at
// most depth composite levels deep with 1–4 terms per And/Or.
func randTree(rng *rand.Rand, in *Batch, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		return randLeaf(rng, in)
	}
	if rng.Intn(5) == 0 {
		return Not{E: randTree(rng, in, depth-1)}
	}
	terms := make([]Expr, rng.Intn(4)+1)
	for i := range terms {
		terms[i] = randTree(rng, in, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And{Terms: terms}
	}
	return Or{Terms: terms}
}

// rowReference interprets pred per materialized logical row, exactly as the
// pre-columnar engine did: the oracle for selections and charged cycles.
func rowReference(pred Expr, in *Batch) (want []int32, cycles float64) {
	var cost Cost
	for li, r := range in.Rows() {
		if pred.Eval(r, &cost).Truthy() {
			want = append(want, int32(in.RowIdx(li)))
		}
	}
	return want, cost.Cycles
}

// checkFilterAgainstRows requires FilterBatch — with a fresh selection,
// with a reused one, and narrowing in.Sel in place — and the per-row
// fallback run over the whole predicate to select exactly the reference
// rows for exactly the reference cycles.
func checkFilterAgainstRows(t *testing.T, caseNo int, pred Expr, in *Batch) {
	t.Helper()
	want, wantCycles := rowReference(pred, in)
	check := func(how string, got []int32, cycles float64) {
		t.Helper()
		if got == nil {
			t.Fatalf("case %d (%s): %s returned a nil selection", caseNo, pred, how)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%s): %s selected %v, row reference %v", caseNo, pred, how, got, want)
		}
		if cycles != wantCycles {
			t.Fatalf("case %d (%s): %s charged %v cycles, row reference %v", caseNo, pred, how, cycles, wantCycles)
		}
	}

	var fresh, reused, fallback, inPlace Cost
	check("FilterBatch", FilterBatch(pred, in, nil, &fresh), fresh.Cycles)
	stale := make([]int32, 3, 200) // a caller's selection from an earlier page
	check("FilterBatch into a reused selection", FilterBatch(pred, in, stale, &reused), reused.Cycles)

	check("the per-row fallback", FilterFallback(pred, in, in.Sel, make([]int32, 0, in.Len()), &fallback), fallback.Cycles)

	if in.Sel != nil {
		narrowed := *in
		narrowed.Sel = append(make([]int32, 0, len(in.Sel)), in.Sel...)
		check("FilterBatch narrowing in.Sel in place", FilterBatch(pred, &narrowed, narrowed.Sel, &inPlace), inPlace.Cycles)
	}
}

// TestFilterBatchMatchesRowAtATimeExactly draws single leaves over
// one-column batches — every kernel against every vector shape, every odd
// case's comparison with its constant first.
func TestFilterBatchMatchesRowAtATimeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc01a))
	for caseNo := 0; caseNo < 2000; caseNo++ {
		numeric := rng.Intn(2) == 0
		in := randBatch(rng, numeric)
		pred := randPred(rng, numeric)
		if caseNo%2 == 1 {
			pred = constFirst(pred)
		}
		checkFilterAgainstRows(t, caseNo, pred, in)
	}
}

// TestFilterBatchTreesMatchRowAtATimeExactly draws what the binder really
// emits: trees of And/Or/Not (depth <= 3, 1–4 terms) over multi-column
// batches, leaves from all three kernels, the column-vs-column loop and
// fallback, and IN-list equality chains over every page shape, still
// demanding identical selected indices and identical cycles against
// per-row Eval.
func TestFilterBatchTreesMatchRowAtATimeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ee5))
	composite, intPage, otherPage := 0, 0, 0
	for caseNo := 0; caseNo < 3000; caseNo++ {
		in := randTreeBatch(rng)
		pred := randTree(rng, in, 3)
		switch pred.(type) {
		case And, Or, Not:
			composite++
		}
		walkEqChains(pred, func(c int, nullConst bool) {
			if vec := &in.Cols[c]; vec.Nulls == nil && vec.Kind != KindFloat && !nullConst {
				intPage++
			} else {
				otherPage++
			}
		})
		checkFilterAgainstRows(t, caseNo, pred, in)
	}
	if composite < 2000 || intPage < 300 || otherPage < 300 {
		t.Fatalf("%d/3000 cases were composite, %d equality chains met a NULL-free integer page and %d another page — generator shape drifted",
			composite, intPage, otherPage)
	}
}

// walkEqChains calls visit with the column of every Or in pred whose terms
// are all equalities of one column with a constant, and whether one of the
// constants is NULL.
func walkEqChains(pred Expr, visit func(col int, nullConst bool)) {
	switch p := pred.(type) {
	case Not:
		walkEqChains(p.E, visit)
	case And:
		for _, t := range p.Terms {
			walkEqChains(t, visit)
		}
	case Or:
		col, nullConst := -1, false
		for _, t := range p.Terms {
			walkEqChains(t, visit)
			if c, ok := t.(Cmp); ok && c.Op == EQ {
				if l, ok := c.L.(Col); ok && (col == -1 || col == l.Idx) {
					if k, ok := c.R.(Const); ok {
						col, nullConst = l.Idx, nullConst || k.V.IsNull()
						continue
					}
				}
			}
			col = -2
		}
		if col >= 0 && len(p.Terms) >= 2 {
			visit(col, nullConst)
		}
	}
}

// TestFilterIntegerDomainBoundariesExact runs every comparison, either way
// round, and Between, of an Int, Date or Bool payload with a numeric constant — which
// a compiled filter decides in the integer domain wherever float64 holds
// the constant's integers exactly — against the row reference, at the
// values where that rewrite could go wrong: payloads either side of ±2⁵³
// and at the ends of int64, constants integral and a half off an integer,
// -0, NaN, ±Inf, and ±2⁵³ and its neighbours as floats. Each predicate runs
// as it stands and under a NOT, over the whole batch and through a
// candidate selection.
func TestFilterIntegerDomainBoundariesExact(t *testing.T) {
	const big = int64(1) << 53
	payload := []int64{0, 1, -1, big - 1, -(big - 1), big, -big, big + 1, -(big + 1), math.MinInt64, math.MaxInt64}
	var konsts []Value
	for _, x := range payload {
		konsts = append(konsts, Int(x), Float(float64(x)))
	}
	for _, f := range []float64{0.5, -0.5, 1.5, -1.5, 1<<51 + 0.5, -(1<<51 + 0.5), 1<<52 - 0.5, -(1<<52 - 0.5),
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		float64(big), -float64(big), float64(big - 1), -float64(big - 1), float64(big + 2), -float64(big + 2)} {
		konsts = append(konsts, Float(f))
	}
	konsts = append(konsts, Date(1), Bool(true))
	caseNo := 0
	for _, kind := range []Kind{KindInt, KindDate, KindBool} {
		for _, sel := range [][]int32{nil, {0, 2, 3, 5, 8, 9}} {
			in := &Batch{Cols: []ColVec{IntVec(kind, payload)}, N: len(payload)}
			in.Sel = sel
			c := Col{Idx: 0, Name: "x"}
			for i, k := range konsts {
				preds := []Expr{Between{E: c, Lo: k, Hi: konsts[(i+7)%len(konsts)]}}
				for op := EQ; op <= GE; op++ {
					preds = append(preds, Cmp{Op: op, L: c, R: Const{V: k}}, Cmp{Op: op, L: Const{V: k}, R: c})
				}
				for _, pred := range preds {
					checkFilterAgainstRows(t, caseNo, pred, in)
					checkFilterAgainstRows(t, caseNo, Not{E: pred}, in)
					caseNo++
				}
			}
		}
	}
}

// TestFilterColVsColMatchesRowAtATimeExactly runs Cmp{Col, Col} — and,
// under a NOT, its negation — against the row reference over
// oracle.RandVec pairs of every numeric kind, int against float included,
// with NaN, ±Inf, -0 and ints either side of 2⁵³ among the values. Two
// cases in three draw both columns NULL-free, which the typed loop takes;
// the rest take the fallback.
func TestFilterColVsColMatchesRowAtATimeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc01c))
	vec := func(n int, dense bool) ColVec {
		kind := oracle.RandKind(rng, true)
		for {
			if v := oracle.RandVec(rng, kind, n, nil); !dense || v.Nulls == nil && v.Kind == kind {
				return *v
			}
		}
	}
	for caseNo := 0; caseNo < 2000; caseNo++ {
		n := rng.Intn(60) + 1
		dense := rng.Intn(3) > 0
		in := &Batch{Cols: []ColVec{vec(n, dense), vec(n, dense)}, N: n, Sel: oracle.RandSel(rng, n)}
		var pred Expr = Cmp{Op: CmpOp(rng.Intn(6)), L: Col{Idx: 0}, R: Col{Idx: 1}}
		if rng.Intn(3) == 0 {
			pred = Not{E: pred}
		}
		checkFilterAgainstRows(t, caseNo, pred, in)
	}
}

// TestFilterBatchSteadyStateAllocatesNothing pins the per-page allocation
// fix: with a caller-supplied selection, a 3-term AND — and an OR and a
// fallback leaf, which need scratch, the column-vs-column kernel, an IN
// list and an integer NE — allocate nothing
// once warm, compiling into pooled storage included.
func TestFilterBatchSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	in := NewBatch(3)
	for i := 0; i < 500; i++ {
		in.AppendRow(Row{Int(int64(i % 50)), Float(float64(i) * 1.5), Float(float64(i%11) / 100)})
	}
	lit := func(v Value) Expr { return Const{V: v} }
	preds := map[string]Expr{
		"3-term AND": And{Terms: []Expr{
			Cmp{Op: LT, L: Col{Idx: 0}, R: lit(Int(45))},
			Cmp{Op: GE, L: Col{Idx: 1}, R: lit(Float(100))},
			Cmp{Op: GT, L: Col{Idx: 2}, R: lit(Float(0.01))},
		}},
		"OR": Or{Terms: []Expr{
			Cmp{Op: EQ, L: Col{Idx: 0}, R: lit(Int(7))},
			Between{E: Col{Idx: 1}, Lo: Float(10), Hi: Float(90)},
		}},
		"col-vs-col kernel":   Cmp{Op: LT, L: Col{Idx: 2}, R: Col{Idx: 1}},
		"arithmetic fallback": Cmp{Op: LT, L: Arith{Op: Add, L: Col{Idx: 2}, R: Col{Idx: 0}}, R: Col{Idx: 1}},
		"IN list": Or{Terms: []Expr{
			Cmp{Op: EQ, L: Col{Idx: 0}, R: lit(Int(7))},
			Cmp{Op: EQ, L: Col{Idx: 0}, R: lit(Float(13))},
			Cmp{Op: EQ, L: Col{Idx: 0}, R: lit(Int(7))},
		}},
		"integer NE": Cmp{Op: NE, L: Col{Idx: 0}, R: lit(Int(7))},
	}
	for name, pred := range preds {
		var cost Cost
		sel := make([]int32, 0, in.N)
		if allocs := testing.AllocsPerRun(100, func() { sel = FilterBatch(pred, in, sel, &cost) }); allocs != 0 {
			t.Errorf("%s: FilterBatch allocates %v times per call with a caller-supplied selection, want 0", name, allocs)
		}
	}
}

// TestDictFilterMatchesDenseExactly mirrors every random string batch into
// a dictionary-encoded copy and requires FilterBatch to agree EXACTLY —
// selected physical indices and charged cycles — between the two physical
// representations and the row-at-a-time reference. Predicate constants are
// drawn independently of the column, so out-of-dictionary words (the
// code-miss paths of selCmpCodes) occur constantly; every odd case's
// comparison has its constant first.
func TestDictFilterMatchesDenseExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1c7))
	encoded := 0
	for caseNo := 0; caseNo < 2000; caseNo++ {
		in := randBatch(rng, false)
		pred := randPred(rng, false)
		if caseNo%2 == 1 {
			pred = constFirst(pred)
		}

		// Rebuild the same logical column, then switch it to codes.
		din := NewBatch(1)
		for i := 0; i < in.Cols[0].Len(); i++ {
			din.AppendRow(Row{in.Cols[0].Get(i)})
		}
		if in.Sel != nil {
			din.Sel = append([]int32(nil), in.Sel...)
		}
		vec := &din.Cols[0]
		var words []string
		for i := 0; i < vec.Len(); i++ {
			if v := vec.Get(i); v.Kind == KindString {
				words = append(words, v.S)
			}
		}
		if !vec.EncodeDict(NewDict(words)) {
			continue // all-NULL column: no string payload to encode
		}
		encoded++

		want, refCycles := rowReference(pred, in)
		var denseCost, dictCost Cost
		dense := FilterBatch(pred, in, nil, &denseCost)
		dict := FilterBatch(pred, din, nil, &dictCost)

		if len(dense) != len(want) || len(dict) != len(want) {
			t.Fatalf("case %d (%s): dense selected %d, dict %d, row reference %d",
				caseNo, pred, len(dense), len(dict), len(want))
		}
		for i := range want {
			if dense[i] != want[i] || dict[i] != want[i] {
				t.Fatalf("case %d (%s): selection %d differs: dense %d dict %d want %d",
					caseNo, pred, i, dense[i], dict[i], want[i])
			}
		}
		if denseCost.Cycles != refCycles || dictCost.Cycles != refCycles {
			t.Fatalf("case %d (%s): dense charged %v, dict %v, row reference %v — encoding must be charging-neutral",
				caseNo, pred, denseCost.Cycles, dictCost.Cycles, refCycles)
		}
	}
	if encoded < 1500 {
		t.Fatalf("only %d/2000 cases dictionary-encoded — generator shape drifted", encoded)
	}
}

// randPrunePage draws one page of TestZonePruneSoundness's generator: a
// randBatch column of a random class and a randPrunePred over it.
func randPrunePage(rng *rand.Rand) (*Batch, Expr) {
	numeric := rng.Intn(2) == 0
	in := randBatch(rng, numeric)
	return in, randPrunePred(rng, numeric)
}

// randPrunePred draws a randPred alone — a comparison with its constant
// first half the time — or under an AND or OR with a second one.
func randPrunePred(rng *rand.Rand, numeric bool) Expr {
	pred := randPred(rng, numeric)
	switch rng.Intn(4) {
	case 0:
		return And{Terms: []Expr{pred, randPred(rng, numeric)}}
	case 1:
		return Or{Terms: []Expr{pred, randPred(rng, numeric)}}
	case 2:
		return constFirst(pred)
	}
	return pred
}

// randNaNPage draws a float page holding NaN first, in the middle, or
// throughout, among oracle.RandColumn's values (NULLs included), and a
// numeric randPrunePred for it.
func randNaNPage(rng *rand.Rand) (*Batch, Expr) {
	vals := oracle.RandColumn(rng, KindFloat, rng.Intn(20)+1)
	switch rng.Intn(3) {
	case 0:
		vals[0] = Float(math.NaN())
	case 1:
		vals[len(vals)/2] = Float(math.NaN())
	default:
		for i := range vals {
			vals[i] = Float(math.NaN())
		}
	}
	in := NewBatch(1)
	for _, v := range vals {
		in.AppendRow(Row{v})
	}
	return in, randPrunePred(rng, true)
}

// TestZonePruneSoundness builds each random page's zone maps exactly as
// Heap.AppendBatch does (Fold over the column) and requires that whenever
// the compiled filter's Prunes claims its predicate holds nowhere on the
// page, the full filter
// over the page indeed selects nothing. Covers the NULL-heavy, all-NULL,
// and composite AND/OR shapes, and float pages holding a NaN, which
// Compare ties with every value.
func TestZonePruneSoundness(t *testing.T) {
	pruned := 0
	check := func(label string, in *Batch, pred Expr) {
		t.Helper()
		f := CompileFilter(pred)
		if !f.Prunable() {
			t.Fatalf("%s: generator produced non-prunable predicate %s", label, pred)
		}
		zones := make([]Zone, 1)
		zones[0].Fold(&in.Cols[0], 0, in.Cols[0].Len())
		if !f.Prunes(zones) {
			return
		}
		pruned++
		// Zones summarize the whole page: check against every row.
		in.Sel = nil
		var cost Cost
		if sel := FilterBatch(pred, in, nil, &cost); len(sel) != 0 {
			t.Fatalf("%s (%s) over %v: zone maps pruned a page on which the filter selects %d rows (zone %+v)",
				label, pred, vecValues(&in.Cols[0]), len(sel), zones[0])
		}
	}
	rng := rand.New(rand.NewSource(0x20e5))
	for caseNo := 0; caseNo < 2000; caseNo++ {
		in, pred := randPrunePage(rng)
		check(fmt.Sprintf("case %d", caseNo), in, pred)
	}
	if pruned < 200 {
		t.Fatalf("only %d/2000 cases pruned — generator no longer exercises Prunes", pruned)
	}

	x := Col{Idx: 0, Name: "x"}
	page := func(vals ...float64) *Batch {
		b := NewBatch(1)
		for _, f := range vals {
			b.AppendRow(Row{Float(f)})
		}
		return b
	}
	// NaN first: the 5 passes x < 7. NaN last: Compare ties NaN with 7,
	// so the NaN row passes x = 7.
	check("NaN first", page(math.NaN(), 5), Cmp{Op: LT, L: x, R: Const{V: Int(7)}})
	check("NaN last", page(5, math.NaN()), Cmp{Op: EQ, L: x, R: Const{V: Int(7)}})
	for caseNo := 0; caseNo < 2000; caseNo++ {
		in, pred := randNaNPage(rng)
		check(fmt.Sprintf("NaN case %d", caseNo), in, pred)
	}
}

// TestZonePrunesMatchesBoxedReference runs TestZonePruneSoundness's
// generators, NaN pages included, and requires the compiled filter's
// Prunes over the typed zone to decide every case as the oracle's boxed rules over the
// oracle's zone do.
func TestZonePrunesMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x20e5))
	for caseNo := 0; caseNo < 4000; caseNo++ {
		gen := randPrunePage
		if caseNo >= 2000 {
			gen = randNaNPage
		}
		in, pred := gen(rng)
		vec := &in.Cols[0]
		zones, ref := make([]Zone, 1), make([]oracle.Zone, 1)
		zones[0].Fold(vec, 0, vec.Len())
		for i := 0; i < vec.Len(); i++ {
			ref[0].Fold(vec.Get(i))
		}
		if got, want := CompileFilter(pred).Prunes(zones), oracle.Prunes(pred, ref); got != want {
			t.Fatalf("case %d (%s) over %v: typed zone %+v prunes %v, the oracle's zone %+v prunes %v",
				caseNo, pred, vecValues(vec), zones[0], got, ref[0], want)
		}
	}
}

// TestEmptyRangePrunes pins the empty-range rule of Between pruning: a
// range whose lo is at or above its hi passes no row, so the page is
// pruned whatever the zone's bounds — a string page bounded by the empty
// string and zz under the range [ba, b), numeric ranges of equal or
// crossed bounds — while a NaN lo, which Compare ties with every hi, is
// no bound and prunes nothing.
func TestEmptyRangePrunes(t *testing.T) {
	words := NewBatch(1)
	for _, s := range []string{"zz", "ba", "", "b"} {
		words.AppendRow(Row{String(s)})
	}
	floats := NewBatch(1)
	for _, f := range []float64{1, 2.5, 7} {
		floats.AppendRow(Row{Float(f)})
	}
	c := Col{Idx: 0, Name: "c"}
	for _, tc := range []struct {
		in    *Batch
		pred  Expr
		prune bool
	}{
		{words, Between{E: c, Lo: String("ba"), Hi: String("b")}, true},
		{floats, Between{E: c, Lo: Int(2), Hi: Float(2)}, true},
		{floats, Between{E: c, Lo: Float(5), Hi: Int(3)}, true},
		{floats, Between{E: c, Lo: Float(math.NaN()), Hi: Float(3)}, false},
	} {
		vec := &tc.in.Cols[0]
		zones, ref := make([]Zone, 1), make([]oracle.Zone, 1)
		zones[0].Fold(vec, 0, vec.Len())
		for i := 0; i < vec.Len(); i++ {
			ref[0].Fold(vec.Get(i))
		}
		if got, want := CompileFilter(tc.pred).Prunes(zones), oracle.Prunes(tc.pred, ref); got != tc.prune || want != tc.prune {
			t.Fatalf("%s over %v: typed zone prunes %v, the oracle's %v; want %v", tc.pred, vecValues(vec), got, want, tc.prune)
		}
		var cost Cost
		tc.in.Sel = nil
		if sel := FilterBatch(tc.pred, tc.in, nil, &cost); tc.prune == (len(sel) != 0) {
			t.Fatalf("%s over %v: prunes %v, and the filter passes rows %v", tc.pred, vecValues(vec), tc.prune, sel)
		}
	}
}

func TestEvalBatchColFastPathMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(0xeba1))
	for caseNo := 0; caseNo < 500; caseNo++ {
		numeric := rng.Intn(2) == 0
		in := randBatch(rng, numeric)
		e := Col{Idx: 0, Name: "c"}

		var refCost Cost
		rows := in.Rows()
		want := make([]Value, len(rows))
		for i, r := range rows {
			want[i] = e.Eval(r, &refCost)
		}

		var fastCost Cost
		var dst ColVec
		EvalBatch(e, in, &dst, &fastCost)

		if dst.Len() != len(want) {
			t.Fatalf("case %d: EvalBatch produced %d values, want %d", caseNo, dst.Len(), len(want))
		}
		for i := range want {
			if dst.Get(i) != want[i] {
				t.Fatalf("case %d: value %d = %v, want %v", caseNo, i, dst.Get(i), want[i])
			}
		}
		if fastCost.Cycles != refCost.Cycles {
			t.Fatalf("case %d: Col fast path charged %v cycles, row reference %v",
				caseNo, fastCost.Cycles, refCost.Cycles)
		}
	}
}

// randArithBatch builds a random batch of numeric columns for the
// arithmetic tests: each column holds one of Int/Float/Date/Bool (zeros
// included, so divisions hit x/0), NULL-free or NULL-bearing — the last
// column sometimes all-NULL, which the typed loops must refuse — under
// an oracle.RandSel input selection.
func randArithBatch(rng *rand.Rand) *Batch {
	n := rng.Intn(60) + 1
	b := &Batch{Cols: make([]ColVec, 4), N: n}
	for c := range b.Cols {
		kind := []Kind{KindInt, KindFloat, KindDate, KindBool}[rng.Intn(4)]
		nullFrac := []float64{0, 0, 0.3}[rng.Intn(3)]
		if c == 3 {
			nullFrac = []float64{0, 0.3, 1}[rng.Intn(3)]
		}
		for i := 0; i < n; i++ {
			if rng.Float64() < nullFrac {
				b.Cols[c].Append(Null())
			} else {
				b.Cols[c].Append(oracle.RandKindValue(rng, kind))
			}
		}
	}
	b.Sel = oracle.RandSel(rng, n)
	return b
}

// randArith draws an arithmetic tree over randArithBatch's columns and
// numeric (occasionally NULL or zero) constants.
func randArith(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(3) == 0 {
			return Const{V: oracle.RandValue(rng, true, 0.1)}
		}
		return Col{Idx: rng.Intn(4)}
	}
	return Arith{Op: ArithOp(rng.Intn(4)), L: randArith(rng, depth-1), R: randArith(rng, depth-1)}
}

// TestEvalBatchArithMatchesEvalExactly is the EvalBatch twin of the filter
// tree test: random Arith trees must produce, value for value, the bits
// per-row Eval produces — float payload, NULL positions (NULL operands and
// division by zero included) and charged cycles — and leave dst a
// well-formed vector.
func TestEvalBatchArithMatchesEvalExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa217))
	var dst ColVec // reused across cases, as operators reuse theirs
	typed, nulls := 0, 0
	for caseNo := 0; caseNo < 3000; caseNo++ {
		in := randArithBatch(rng)
		e := Arith{Op: ArithOp(rng.Intn(4)), L: randArith(rng, 2), R: randArith(rng, 2)}
		if ArithTyped(e, in) {
			typed++
		}

		var refCost Cost
		rows := in.Rows()
		want := make([]Value, len(rows))
		for i, r := range rows {
			want[i] = e.Eval(r, &refCost)
		}

		var cost Cost
		EvalBatch(e, in, &dst, &cost)

		if dst.Len() != len(want) {
			t.Fatalf("case %d (%s): EvalBatch produced %d values, want %d", caseNo, e, dst.Len(), len(want))
		}
		live := 0
		for i, w := range want {
			got := dst.Get(i)
			if got.Kind != w.Kind || math.Float64bits(got.F) != math.Float64bits(w.F) {
				t.Fatalf("case %d (%s): value %d = %v (%#x), row reference %v (%#x)",
					caseNo, e, i, got, math.Float64bits(got.F), w, math.Float64bits(w.F))
			}
			if w.IsNull() {
				nulls++
			} else {
				live++
			}
		}
		if cost.Cycles != refCost.Cycles {
			t.Fatalf("case %d (%s): EvalBatch charged %v cycles, row reference %v", caseNo, e, cost.Cycles, refCost.Cycles)
		}
		// Representation invariants (see ColVec): kind only once a non-NULL
		// element exists, full-length payload exactly then, zero under NULLs.
		if (dst.Kind == KindFloat) != (live > 0) || (dst.Kind != KindFloat && dst.Kind != KindNull) {
			t.Fatalf("case %d (%s): dst.Kind = %v with %d non-NULL values", caseNo, e, dst.Kind, live)
		}
		if live > 0 && len(dst.F) != dst.Len() {
			t.Fatalf("case %d (%s): payload holds %d of %d elements", caseNo, e, len(dst.F), dst.Len())
		}
		for i := range dst.F {
			if dst.IsNull(i) && dst.F[i] != 0 {
				t.Fatalf("case %d (%s): payload under NULL %d is %v, want 0", caseNo, e, i, dst.F[i])
			}
		}
	}
	if typed < 1000 || nulls < 1000 {
		t.Fatalf("%d/3000 cases ran the typed loops and %d values were NULL — generator shape drifted", typed, nulls)
	}
}

// TestEvalBatchArithSteadyStateAllocatesNothing pins the scratch reuse on
// the projection path: NULL-free arithmetic into a reused vector allocates
// nothing once warm.
func TestEvalBatchArithSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	in := NewBatch(2)
	for i := 0; i < 500; i++ {
		in.AppendRow(Row{Float(float64(i) * 1.5), Float(float64(i%11) / 100)})
	}
	// Boxed once here: converting an Arith to Expr per call would allocate.
	var revenue Expr = Arith{Op: Mul, L: Col{Idx: 0}, R: Arith{Op: Sub, L: Const{V: Float(1)}, R: Col{Idx: 1}}}
	var (
		cost Cost
		dst  ColVec
	)
	if allocs := testing.AllocsPerRun(100, func() { EvalBatch(revenue, in, &dst, &cost) }); allocs != 0 {
		t.Errorf("EvalBatch allocates %v times per call into a reused vector, want 0", allocs)
	}
}
