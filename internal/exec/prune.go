package exec

import (
	"ecodb/internal/expr"
)

// Scan-time zone-map pruning, shared by private scans and shared-pass
// consumers, both heap fragments under the morsel pump.
//
// Pruning is a pure skip decision: the predicate a page is checked against
// is only ever used to prove "no row here can pass", never to drop the
// actual filtering work, so results are bit-identical with pruning on or
// off. What changes is the charge stream — a pruned page costs one
// ZoneCheckCycles constant instead of a buffer-pool access, a disk read,
// page streaming, and per-tuple interpretation.

// prunePredicate decides whether a scan runs with pruning active and
// returns the predicate pages are checked against: pred when the
// statement's engine prunes (Ctx.ZoneMapPruning) and pred has a prunable
// shape, nil otherwise. A nil return means "never check, never charge".
func prunePredicate(ctx *Ctx, pred expr.Expr) expr.Expr {
	if pred == nil || !ctx.ZoneMapPruning || !expr.Prunable(pred) {
		return nil
	}
	return pred
}

// conjoinPrune combines a scan's own filter with downstream filter
// predicates pushed down for the prune decision only. Terms must all
// reference the scan's schema (fragment.initPrune stops collecting at the
// first projection).
func conjoinPrune(terms []expr.Expr) expr.Expr {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	default:
		return expr.And{Terms: terms}
	}
}

// Pages skipped by zone-map pruning are counted in the process-wide
// metrics registry (obsv.PagesPruned) — once per physical skip: per page
// for heap fragments, once per pass step for shared scans regardless of how
// many consumers observe the skip.
