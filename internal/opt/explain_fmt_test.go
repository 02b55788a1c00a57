package opt

import (
	"fmt"
	"math"
	"testing"
)

// TestExplainNumbersAsFmtPrintsThem holds EXPLAIN's strconv rendering to
// the fmt verbs it replaced: %.1f µ, %.2f m and %.3f units for seconds and
// joules, %.0f below and %.3g from a threshold for rows and cycles, and
// %-Ns padding, which counts runes, not bytes.
func TestExplainNumbersAsFmtPrintsThem(t *testing.T) {
	qty := func(v float64, unit string) string {
		switch {
		case v <= 0:
			return "0 " + unit
		case v < 1e-3:
			return fmt.Sprintf("%.1f µ%s", v*1e6, unit)
		case v < 1:
			return fmt.Sprintf("%.2f m%s", v*1e3, unit)
		default:
			return fmt.Sprintf("%.3f %s", v, unit)
		}
	}
	scaled := func(v, below float64) string {
		if v < below {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.3g", v)
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3,
		1e-9, 4.99e-5, 9.9995e-4, 1e-3, 0.5, 0.9995, 0.99949, 1, 2.5, 9999.5, 1e4, 99950, 999999.5, 1e6, 1.2345e7, 9.995e6, 1e300}
	for x := 1e-7; x < 1e9; x *= 1.37 {
		vals = append(vals, x)
	}
	for _, v := range vals {
		for _, unit := range []string{"s", "J"} {
			if got, want := string(appendQty(nil, v, unit)), qty(v, unit); got != want {
				t.Errorf("appendQty(%v, %s) = %q, fmt %q", v, unit, got, want)
			}
		}
		want := scaled(v, 1e6)
		if v < 1 {
			want = "0"
		}
		if got := string(appendRows(nil, v)); got != want {
			t.Errorf("appendRows(%v) = %q, fmt %q", v, got, want)
		}
		if got, want := string(appendCycles(nil, v)), scaled(v, 1e4); got != want {
			t.Errorf("appendCycles(%v) = %q, fmt %q", v, got, want)
		}
	}
	for _, s := range []string{"", "Scan(orders)", "Filter(('é' = 'é'))", "HashJoin(a ⨝ b)", "Scan(lineitem, filtered) and then some more words to pass 52"} {
		for _, w := range []int{10, 52} {
			if got, want := string(pad([]byte("  "+s), 2, w)), fmt.Sprintf("  %-*s", w, s); got != want {
				t.Errorf("pad(%q, %d) = %q, fmt %q", s, w, got, want)
			}
		}
	}
}
