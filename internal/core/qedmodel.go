package core

import (
	"fmt"

	"ecodb/internal/sim"
)

// QEDModel is the "simple analytical model" §4 alludes to for QED's
// response-time effects: with t₁ the single-query time and the merged
// batch taking T(n) = a + b·n,
//
//	sequential mean response over n queries  = (n+1)/2 · t₁
//	QED response (every query, from issue)   = a + b·n
//	first-query degradation                  = T(n) − t₁
//	last-query degradation                   = T(n) − n·t₁
//
// It captures the paper's observations that degradation is most severe for
// the first query, least for the last, and that the first query's
// degradation grows with batch size.
type QEDModel struct {
	Single   sim.Duration // t₁
	Fixed    sim.Duration // a: merged-query cost independent of batch size
	PerQuery sim.Duration // b: merged-query cost per batched query
}

// FitQEDModel calibrates the model from three observations: a single-query
// run and merged runs at two batch sizes.
func FitQEDModel(single sim.Duration, n1 int, t1 sim.Duration, n2 int, t2 sim.Duration) QEDModel {
	if n1 == n2 {
		panic("core: FitQEDModel needs two distinct batch sizes")
	}
	b := float64(t2-t1) / float64(n2-n1)
	a := float64(t1) - b*float64(n1)
	return QEDModel{Single: single, Fixed: sim.Duration(a), PerQuery: sim.Duration(b)}
}

// MergedTime predicts the merged batch execution time T(n).
func (m QEDModel) MergedTime(n int) sim.Duration {
	return m.Fixed + m.PerQuery*sim.Duration(n)
}

// SequentialMeanResponse predicts the mean per-query response of the
// traditional scheme with all n queries issued at once.
func (m QEDModel) SequentialMeanResponse(n int) sim.Duration {
	return m.Single * sim.Duration(n+1) / 2
}

// FirstQueryDegradation predicts how much longer the first query waits
// versus running alone immediately.
func (m QEDModel) FirstQueryDegradation(n int) sim.Duration {
	return m.MergedTime(n) - m.Single
}

// LastQueryDegradation predicts the last query's extra wait versus its
// sequential completion at n·t₁ (often negative: the last query finishes
// sooner under QED).
func (m QEDModel) LastQueryDegradation(n int) sim.Duration {
	return m.MergedTime(n) - sim.Duration(n)*m.Single
}

func (m QEDModel) String() string {
	return fmt.Sprintf("QEDModel{t1=%v, T(n)=%v + n·%v}", m.Single, m.Fixed, m.PerQuery)
}
