package opt

import (
	"math"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

// TestRangeFractionNeedsFiniteNumericBounds requires rangeFraction to size
// a numeric constant against finite numeric bounds only: a NaN-widened
// zone, an infinite bound, a string or all-NULL column and a string or
// NULL constant give no estimate, so no selectivity is NaN or infinite.
func TestRangeFractionNeedsFiniteNumericBounds(t *testing.T) {
	stats := func(xs ...float64) *catalog.ColStats {
		var cs catalog.ColStats
		v := expr.FloatVec(xs)
		cs.Fold(&v, 0, v.Len())
		return &cs
	}
	var words catalog.ColStats
	w := expr.StringVec([]string{"a", "b"})
	words.Fold(&w, 0, w.Len())

	if f, ok := rangeFraction(stats(0, 10), expr.Int(5)); !ok || f != 0.5 {
		t.Fatalf("[0, 10] below 5: %v, %v; want 0.5, true", f, ok)
	}
	for _, c := range []struct {
		name string
		cs   *catalog.ColStats
		v    expr.Value
	}{
		{"NaN-widened", stats(1, math.NaN(), 3), expr.Int(2)},
		{"infinite high bound", stats(1, math.Inf(1)), expr.Int(2)},
		{"infinite low bound", stats(math.Inf(-1), 1), expr.Int(0)},
		{"string column", &words, expr.Int(0)},
		{"all-NULL column", &catalog.ColStats{}, expr.Int(0)},
		{"string constant", stats(0, 10), expr.String("5")},
		{"NULL constant", stats(0, 10), expr.Null()},
	} {
		if f, ok := rangeFraction(c.cs, c.v); ok {
			t.Fatalf("%s: estimated %v, want no estimate", c.name, f)
		}
	}
}
