package opt

import (
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// OpCycles is one operator's estimated cycles by work kind, before
// amplification — what planCycles collects and OperatorEstimates converts
// to seconds and joules.
type OpCycles struct {
	Kind   obsv.Kind
	Cycles [3]float64
}

// OperatorCycles exposes planCycles' per-operator cycle estimates to the
// package's external tests, in OperatorEstimates' order.
func OperatorCycles(lg *plan.Logical, env Env, ch *Choice) []OpCycles {
	_, _, ops, _ := newEst(lg, env).choiceOps(ch)
	out := make([]OpCycles, len(ops))
	for i, op := range ops {
		out[i] = OpCycles{Kind: op.kind, Cycles: op.cyc.k}
	}
	return out
}
