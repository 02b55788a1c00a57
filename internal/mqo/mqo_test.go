package mqo

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

func lineitemish() *catalog.Table {
	t := catalog.NewTable("li", catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "qty", Kind: expr.KindInt},
	))
	for i := int64(0); i < 100; i++ {
		t.Insert(expr.Row{expr.Int(i), expr.Int(i%10 + 1)})
	}
	return t
}

func selQuery(t *catalog.Table, qty int64) plan.Node {
	return plan.NewScan(t, expr.Cmp{
		Op: expr.EQ, L: t.Schema.Col("qty"), R: expr.Const{V: expr.Int(qty)},
	})
}

func TestExtractSelection(t *testing.T) {
	tb := lineitemish()
	sel, ok := ExtractSelection(selQuery(tb, 3))
	if !ok {
		t.Fatal("selection not recognized")
	}
	if sel.Table != tb || sel.Col != 1 || sel.Value.I != 3 {
		t.Fatalf("selection = %+v", sel)
	}
}

func TestExtractSelectionRejects(t *testing.T) {
	tb := lineitemish()
	cases := []struct {
		name string
		node plan.Node
	}{
		{"no filter", plan.NewScan(tb, nil)},
		{"range predicate", plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: tb.Schema.Col("qty"), R: expr.Const{V: expr.Int(3)}})},
		{"non-scan", plan.NewLimit(plan.NewScan(tb, nil), 1)},
		{"const-const", plan.NewScan(tb, expr.Cmp{Op: expr.EQ, L: expr.Const{V: expr.Int(1)}, R: expr.Const{V: expr.Int(1)}})},
	}
	for _, c := range cases {
		if _, ok := ExtractSelection(c.node); ok {
			t.Errorf("%s should not be mergeable", c.name)
		}
	}
}

func TestMergeOrChain(t *testing.T) {
	tb := lineitemish()
	m, err := Merge([]plan.Node{selQuery(tb, 1), selQuery(tb, 2), selQuery(tb, 3)}, OrChain)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := m.Plan.(*plan.Scan)
	if !ok {
		t.Fatalf("merged plan is %T", m.Plan)
	}
	or, ok := scan.Filter.(expr.Or)
	if !ok {
		t.Fatalf("merged predicate is %T, want Or", scan.Filter)
	}
	if len(or.Terms) != 3 {
		t.Fatalf("disjunction has %d terms", len(or.Terms))
	}
	// Semantics: merged predicate matches exactly the union.
	for i := int64(0); i < 100; i++ {
		row := expr.Row{expr.Int(i), expr.Int(i%10 + 1)}
		want := row[1].I >= 1 && row[1].I <= 3
		if got := scan.Filter.Eval(row, nil).Truthy(); got != want {
			t.Fatalf("merged predicate on qty=%d = %v, want %v", row[1].I, got, want)
		}
	}
}

func TestMergeHashSet(t *testing.T) {
	tb := lineitemish()
	m, err := Merge([]plan.Node{selQuery(tb, 4), selQuery(tb, 9)}, HashSet)
	if err != nil {
		t.Fatal(err)
	}
	scan := m.Plan.(*plan.Scan)
	if _, ok := scan.Filter.(*expr.InHash); !ok {
		t.Fatalf("merged predicate is %T, want InHash", scan.Filter)
	}
}

func TestMergeErrors(t *testing.T) {
	tb := lineitemish()
	other := catalog.NewTable("other", catalog.NewSchema(
		catalog.Column{Name: "qty", Kind: expr.KindInt}))

	if _, err := Merge([]plan.Node{selQuery(tb, 1)}, OrChain); err == nil {
		t.Fatal("single query should not merge")
	}
	if _, err := Merge(nil, OrChain); err == nil {
		t.Fatal("empty batch should not merge")
	}
	if _, err := Merge([]plan.Node{selQuery(tb, 1), plan.NewScan(tb, nil)}, OrChain); err == nil {
		t.Fatal("non-selection should not merge")
	}
	// Non-EQ predicate: a range selection defeats the merger even when
	// table and column match.
	rangeQ := plan.NewScan(tb, expr.Cmp{Op: expr.LT, L: tb.Schema.Col("qty"), R: expr.Const{V: expr.Int(5)}})
	if _, err := Merge([]plan.Node{selQuery(tb, 1), rangeQ}, OrChain); err == nil {
		t.Fatal("non-EQ predicate should not merge")
	}
	otherQ := plan.NewScan(other, expr.Cmp{Op: expr.EQ, L: other.Schema.Col("qty"), R: expr.Const{V: expr.Int(1)}})
	if _, err := Merge([]plan.Node{selQuery(tb, 1), otherQ}, OrChain); err == nil {
		t.Fatal("cross-table queries should not merge")
	}
	// Cross-column: same table, equality shape, different columns.
	colK := plan.NewScan(tb, expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("k"), R: expr.Const{V: expr.Int(1)}})
	if _, err := Merge([]plan.Node{selQuery(tb, 1), colK}, OrChain); err == nil {
		t.Fatal("cross-column queries should not merge")
	}
	// Order independence of the cross-column check: the mismatch can sit
	// in any position, not just adjacent to the first query.
	if _, err := Merge([]plan.Node{selQuery(tb, 1), selQuery(tb, 2), colK}, OrChain); err == nil {
		t.Fatal("cross-column mismatch in the tail should not merge")
	}
	// A constant of another kind than the column compares numerically in
	// the filter but would never be routed by the split.
	floatQ := plan.NewScan(tb, expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("qty"), R: expr.Const{V: expr.Float(1)}})
	if _, err := Merge([]plan.Node{floatQ, selQuery(tb, 2)}, HashSet); err == nil {
		t.Fatal("a constant whose kind differs from the column's should not merge")
	}
	if _, err := Merge([]plan.Node{selQuery(tb, 1), selQuery(tb, 2)}, MergeStrategy(99)); err == nil {
		t.Fatal("unknown strategy should not merge")
	}
}

func TestExtractSelectionMoreRejects(t *testing.T) {
	tb := lineitemish()
	cases := []struct {
		name string
		node plan.Node
	}{
		{"between", plan.NewScan(tb, expr.Between{E: tb.Schema.Col("qty"), Lo: expr.Int(1), Hi: expr.Int(3)})},
		{"eq with non-const rhs", plan.NewScan(tb, expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("qty"), R: tb.Schema.Col("k")})},
		{"filter above scan", plan.NewFilter(plan.NewScan(tb, nil), expr.Cmp{Op: expr.EQ, L: tb.Schema.Col("qty"), R: expr.Const{V: expr.Int(3)}})},
	}
	for _, c := range cases {
		if _, ok := ExtractSelection(c.node); ok {
			t.Errorf("%s should not be mergeable", c.name)
		}
	}
}

// batchOf builds an owned merged-result batch from rows.
func batchOf(rows ...expr.Row) *expr.Batch {
	b := expr.NewBatch(2)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

func TestSplitRoutesRows(t *testing.T) {
	tb := lineitemish()
	m, err := Merge([]plan.Node{selQuery(tb, 1), selQuery(tb, 2)}, OrChain)
	if err != nil {
		t.Fatal(err)
	}
	// Build the merged result by hand: rows with qty 1, 2 and an
	// (impossible in practice) unmatched qty 5, plus a row the selection
	// vector excludes.
	b := batchOf(
		expr.Row{expr.Int(0), expr.Int(1)},
		expr.Row{expr.Int(1), expr.Int(2)},
		expr.Row{expr.Int(9), expr.Int(2)},
		expr.Row{expr.Int(2), expr.Int(1)},
		expr.Row{expr.Int(3), expr.Int(5)},
	)
	b.Sel = []int32{0, 1, 3, 4}
	s := m.NewSplitter()
	s.Add(b)
	counts, cycles := s.Finish()
	if len(counts) != 2 || counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v, want [2 1]", counts)
	}
	if cycles <= 0 {
		t.Fatal("split must report client cycles")
	}
}

// Queries sharing a constant each see every matching row.
func TestSplitterRoutesDuplicateConstants(t *testing.T) {
	tb := lineitemish()
	m, err := Merge([]plan.Node{selQuery(tb, 1), selQuery(tb, 2), selQuery(tb, 1)}, HashSet)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSplitter()
	s.Add(batchOf(
		expr.Row{expr.Int(0), expr.Int(1)},
		expr.Row{expr.Int(1), expr.Int(2)},
		expr.Row{expr.Int(2), expr.Int(1)},
	))
	if counts, _ := s.Finish(); counts[0] != 2 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("counts = %v, want [2 1 2]", counts)
	}
}

func TestSplitCostScalesWithBatchForOrChain(t *testing.T) {
	tb := lineitemish()
	mk := func(n int, strategy MergeStrategy) float64 {
		queries := make([]plan.Node, n)
		for i := range queries {
			queries[i] = selQuery(tb, int64(i+1))
		}
		m, err := Merge(queries, strategy)
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewSplitter()
		s.Add(batchOf(expr.Row{expr.Int(0), expr.Int(1)}))
		_, cycles := s.Finish()
		return cycles
	}
	if !(mk(10, OrChain) < mk(20, OrChain)) {
		t.Fatal("or-chain split cost should grow with batch size")
	}
	if mk(10, HashSet) != mk(20, HashSet) {
		t.Fatal("hash-set split cost should not grow with batch size")
	}
}

func TestMergeStrategyString(t *testing.T) {
	if OrChain.String() != "or-chain" || HashSet.String() != "hash-set" {
		t.Fatal("strategy names wrong")
	}
}

func TestSplitterStreamingMatchesOneBatch(t *testing.T) {
	lt := lineitemish()
	qcol := lt.Schema.MustIndex("qty")
	plans := make([]plan.Node, 5)
	for i := range plans {
		plans[i] = plan.NewScan(lt, expr.Cmp{
			Op: expr.EQ, L: lt.Schema.Col("qty"), R: expr.Const{V: expr.Int(int64(i + 1))},
		})
	}
	merged, err := Merge(plans, OrChain)
	if err != nil {
		t.Fatal(err)
	}
	// Gather every merged-result row straight off the heap.
	var rows []expr.Row
	for p := 0; p < lt.Heap.NumPages(); p++ {
		for _, r := range lt.Heap.Page(p).Rows() {
			if q := r[qcol].I; q >= 1 && q <= 5 {
				rows = append(rows, r)
			}
		}
	}

	whole := merged.NewSplitter()
	whole.Add(batchOf(rows...))
	wantCounts, wantCycles := whole.Finish()

	// Streaming the same rows through in arbitrary chunk sizes must route
	// identically and charge identical client cycles.
	s := merged.NewSplitter()
	for i := 0; i < len(rows); i += 37 {
		s.Add(batchOf(rows[i:min(i+37, len(rows))]...))
	}
	gotCounts, gotCycles := s.Finish()

	if gotCycles != wantCycles {
		t.Fatalf("client cycles differ: %v vs %v", gotCycles, wantCycles)
	}
	for qi := range wantCounts {
		if gotCounts[qi] != wantCounts[qi] || wantCounts[qi] != 10 {
			t.Fatalf("query %d: %d rows streamed vs %d in one batch, want 10", qi, gotCounts[qi], wantCounts[qi])
		}
	}
}
