package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/oracle"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// Property test for top-N: a LIMIT over a sort must serve exactly the
// prefix of the full stable sort by (keys, ordinal) — the oracle's
// row-at-a-time sort — at workers 0, 1 and 4, whatever the shared cutoff
// and the first-key selection dropped on the way. Tables of up to 400 rows
// on pages of one to a dozen rows span up to a few dozen morsel runs, so
// runs seal while others still add rows. Keys tie heavily, carry NULLs or
// none (a page without NULLs takes the typed selection), and include ±0,
// strings plain or dictionary-coded, and a column of nothing but NaN and
// NULL: Compare ties NaN with everything, so a NaN key orders consistently
// only among NaNs and NULLs, and there a cutoff of NaN must keep every
// row. Inputs arrive under selections: a scan filter over the morsel
// pump, or a filter over an operator input the coordinator sorts as one
// run.

// topNTable draws a table of a unique id and four candidate key columns:
// i (ints 0..5), f (floats with ±0), nan (NaN or NULL) and s (words).
func topNTable(rng *rand.Rand) *catalog.Table {
	tb := &catalog.Table{Name: "t", Schema: catalog.NewSchema(
		catalog.Column{Name: "id", Kind: expr.KindInt},
		catalog.Column{Name: "i", Kind: expr.KindInt},
		catalog.Column{Name: "f", Kind: expr.KindFloat},
		catalog.Column{Name: "nan", Kind: expr.KindFloat},
		catalog.Column{Name: "s", Kind: expr.KindString},
	), Heap: storage.NewHeap(int64(40 + rng.Intn(200)))}
	floats := []float64{-1.5, math.Copysign(0, -1), 0, 0.5, 2, 1e10 / 3}
	words := []string{"", "a", "ab", "b", "zeta"}
	nullP := make([]float64, 4)
	for c := range nullP {
		nullP[c] = []float64{0, 0, 0.1}[rng.Intn(3)]
	}
	for id := range rng.Intn(401) {
		row := expr.Row{expr.Int(int64(id)),
			expr.Int(int64(rng.Intn(6))),
			expr.Float(floats[rng.Intn(len(floats))]),
			expr.Float(math.NaN()),
			expr.String(words[rng.Intn(len(words))])}
		for c, p := range nullP {
			if rng.Float64() < p {
				row[1+c] = expr.Null()
			}
		}
		tb.Insert(row)
	}
	if rng.Intn(2) == 0 {
		tb.Heap.CompressStrings()
	}
	return tb
}

func TestTopNMatchesFullSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(0x709))
	for c := 0; c < 150; c++ {
		tb := topNTable(rng)
		i := tb.Schema.Col("i")
		notK := expr.Cmp{Op: expr.NE, L: i, R: expr.Const{V: expr.Int(int64(rng.Intn(6)))}}
		var input plan.Node
		switch rng.Intn(3) {
		case 0: // the pump over every row
			input = plan.NewScan(tb, nil)
		case 1: // the pump over a scan filter's selections
			input = plan.NewScan(tb, notK)
		default: // one run over an operator input's selections
			input = plan.NewFilter(plan.NewLimit(plan.NewScan(tb, nil), 1000), notK)
		}
		keys := make([]plan.SortKey, 1+rng.Intn(2))
		for k, col := range rng.Perm(4)[:len(keys)] {
			keys[k] = plan.SortKey{Col: 1 + col, Desc: rng.Intn(2) == 0}
		}
		full := plan.NewSort(input, keys...)
		want, _ := oracle.Eval(full)
		for _, limit := range []int{0, 1, 2, 7, len(want), len(want) + 3} {
			p := plan.NewLimit(full, limit)
			prefix := want[:min(limit, len(want))]
			for _, workers := range []int{0, 1, 4} {
				ctx, _ := testCtx()
				got := collect(t, CompileParallel(p, workers), ctx)
				label := fmt.Sprintf("case %d workers %d:\n%s", c, workers, plan.Format(p))
				if len(got) != len(prefix) {
					t.Fatalf("%s%d rows, want %d", label, len(got), len(prefix))
				}
				for r := range got {
					for col := range got[r] {
						if !oracle.SameValue(got[r][col], prefix[r][col]) {
							t.Fatalf("%srow %d: %v, want %v", label, r, got[r], prefix[r])
						}
					}
				}
			}
		}
	}
}
