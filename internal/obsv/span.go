package obsv

import "ecodb/internal/sim"

// Kind classifies a profile span by the operator it observes. The estimate
// join-up matches optimizer operator estimates to spans by kind (and table,
// for scan leaves).
type Kind uint8

const (
	KindStatement Kind = iota // the root: whole-statement overhead + residue
	KindScan                  // any scan leaf: a heap fragment or a shared-pass consumer
	KindFused                 // fused filter/project pipeline stages
	KindJoin
	KindAgg
	KindSort
	KindLimit
	KindFilter // a standalone (unfused) filter — optimizer estimates only
	KindProject
	KindResult // the server→client result path charged at statement finish
	KindQueue  // admission-queue wait before the statement started (server path)
)

func (k Kind) String() string {
	switch k {
	case KindStatement:
		return "statement"
	case KindScan:
		return "scan"
	case KindFused:
		return "fused"
	case KindJoin:
		return "join"
	case KindAgg:
		return "agg"
	case KindSort:
		return "sort"
	case KindLimit:
		return "limit"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindResult:
		return "result"
	case KindQueue:
		return "queue"
	}
	return "unknown"
}

// Span is one operator's slice of a query profile: what it emitted, the
// cycles it charged by work kind, and the simulated seconds and joules
// attributed to those charges.
type Span struct {
	Kind  Kind
	Label string
	Table string // scan leaves: the table being read

	Start, End sim.Time

	// Output actually produced.
	Batches int64
	Rows    int64

	// Cycles charged by this operator, by work kind (post-amplification,
	// exactly what the executor accumulated toward cpu.Run).
	Cycles [3]float64

	// Attributed simulated cost. KindJoules splits Joules by work kind;
	// WaitJoules is the idle-power energy of blocking I/O performed while
	// this operator was running (also included in Joules). Seconds is the
	// attributed share of simulated wall-clock.
	Joules     float64
	KindJoules [3]float64
	WaitJoules float64
	Seconds    float64

	// Scan-path detail.
	PagesRead   int64
	PageBytes   int64
	PagesPruned int64 // pages this scan skipped via zone maps

	// Shared-scan consumer detail: where the consumer attached on the
	// circular pass, and its page outcome counts for the pass.
	SharedEntry  int
	SharedSeen   int64
	SharedPruned int64
	Shared       bool

	// Est carries the optimizer's prediction for this operator when the
	// statement routed through internal/opt.
	Est *OpEstimate

	Children []*Span
	parent   *Span
}

// Parent returns the enclosing span, nil for the root.
func (s *Span) Parent() *Span { return s.parent }

// OpEstimate is the optimizer's per-operator prediction: cardinality and
// the simulated seconds/joules of the operator's cycle vector under the
// chosen parallelism and access path.
type OpEstimate struct {
	Kind    Kind
	Table   string // scan estimates: the table
	Desc    string
	Rows    float64
	Seconds float64
	Joules  float64
}

// PlanInfo is the optimizer's side of the estimate-vs-actual join-up: the
// chosen plan summary and the per-operator estimates in execution order.
type PlanInfo struct {
	Objective   string
	Parallelism int
	Access      string // "shared-scan" or "private-scan"
	EstSeconds  float64
	EstJoules   float64
	EstRows     float64
	Ops         []OpEstimate
}

// Profile is a finished per-query execution profile.
type Profile struct {
	Root       *Span
	Start, End sim.Time

	// Joules is the query total: exactly SumJoules(Root), so per-operator
	// shares always sum to it bit-for-bit. MeterJoules is the same energy
	// accumulated in segment (chronological) order — the order the energy
	// trace integrates in — and agrees with Joules and with
	// Trace.Energy(Start, End) up to float-association dust.
	Joules      float64
	MeterJoules float64
	KindJoules  [3]float64
	WaitJoules  float64

	// Plan is non-nil when the statement routed through the optimizer.
	Plan *PlanInfo
}

// Duration returns the statement's simulated wall-clock.
func (p *Profile) Duration() sim.Duration { return p.End.Sub(p.Start) }

// SumJoules returns a span tree's total attributed joules, summing each
// child subtree before the span's own share. Profile.Joules is computed by
// this function, so callers re-walking the tree the same way reproduce the
// total exactly.
func SumJoules(s *Span) float64 {
	var t float64
	for _, c := range s.Children {
		t += SumJoules(c)
	}
	return t + s.Joules
}

// Walk visits every span depth-first, parents before children.
func Walk(s *Span, fn func(*Span, int)) {
	walk(s, 0, fn)
}

func walk(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	for _, c := range s.Children {
		walk(c, depth+1, fn)
	}
}

// attachEstimates joins the optimizer's per-operator estimates onto the
// executed span tree: scan estimates match scan spans by table name; other
// kinds pair up in deepest-first (post-order) sequence, which is the order
// planCycles records them in. Filter/Project estimates fold into the fused
// span that executed them. Unmatched estimates are dropped.
func attachEstimates(root *Span, ests []OpEstimate) {
	byTable := make(map[string]*Span)
	byKind := make(map[Kind][]*Span)
	var post func(*Span)
	post = func(s *Span) {
		for _, c := range s.Children {
			post(c)
		}
		// Any span naming a table can absorb that table's scan estimate —
		// a parallel-agg span, say, is the fused scan+agg boundary and
		// matches both the scan estimate (by table) and the agg estimate
		// (by kind). Pure scan spans are table-matched only.
		if s.Table != "" {
			byTable[s.Table] = s
		}
		if s.Kind != KindScan {
			byKind[s.Kind] = append(byKind[s.Kind], s)
		}
	}
	post(root)

	take := func(k Kind) *Span {
		l := byKind[k]
		if len(l) == 0 {
			return nil
		}
		byKind[k] = l[1:]
		return l[0]
	}
	for i := range ests {
		est := ests[i]
		var sp *Span
		switch est.Kind {
		case KindScan:
			sp = byTable[est.Table]
		case KindFilter, KindProject:
			// Fused pipelines execute these; fold successive estimates
			// into the same fused span (rows follow the outermost stage).
			l := byKind[KindFused]
			if len(l) > 0 {
				sp = l[0]
			}
		default:
			sp = take(est.Kind)
		}
		if sp == nil {
			continue
		}
		if sp.Est == nil {
			sp.Est = &OpEstimate{}
			*sp.Est = est
		} else {
			sp.Est.Joules += est.Joules
			sp.Est.Seconds += est.Seconds
			sp.Est.Rows = est.Rows
		}
	}
}
