package exec

import (
	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
)

// sharedScanOp is the shared-scan leaf: Open attaches the query to the
// table's shared circular pass, Next pulls pages from the coordinator, and
// Close detaches. The charging split is the scanshare contract — the
// surface hook (page-stream cycles, page hook; plus the buffer-pool access
// inside the coordinator's CircularScan) fires once per page the PASS
// surfaces, on whichever consumer's pull advanced it, while per-tuple
// interpretation and predicate work are charged here, per consumer, for
// every page this query processes. Output batches are page-granular and
// the per-page cost-window flush mirrors morselPump.next exactly, so a
// shared scan driven alone is simulation-identical to a private one.
type sharedScanOp struct {
	coord  *scanshare.Coordinator
	table  *catalog.Table
	filter expr.Expr

	cons    *scanshare.Consumer
	pruning bool       // zone-map pruning active for this execution
	view    expr.Batch // current page view; Sel points into sel
	sel     []int32
	meter   expr.Cost
}

// NewSharedScan returns a shared-scan leaf operator over table, attached
// to coord on Open. filter may be nil for a full scan.
func NewSharedScan(coord *scanshare.Coordinator, table *catalog.Table, filter expr.Expr) Operator {
	return &sharedScanOp{coord: coord, table: table, filter: filter}
}

func (s *sharedScanOp) Schema() *catalog.Schema { return s.table.Schema }

func (s *sharedScanOp) Open(ctx *Ctx) error {
	if pruner := prunePredicate(ctx, s.filter); pruner != nil {
		s.pruning = true
		s.cons = s.coord.AttachPruned(func(zones []expr.Zone) bool {
			return expr.ZonePrunes(pruner, zones)
		})
		return nil
	}
	s.pruning = false
	s.cons = s.coord.Attach()
	return nil
}

func (s *sharedScanOp) Next(ctx *Ctx) (*expr.Batch, error) {
	for {
		ctx.Flush() // close the previous page's pipeline-wide cost window
		_, page, pruned, ok := s.cons.Next(func(_ int, bytes int64) {
			// Shared charges: fired once per pass, on the advancing pull.
			ctx.chargePageStream(bytes)
		})
		if !ok {
			return nil, nil
		}
		if s.pruning {
			// The zone-map consult runs per examined step, pruned or not.
			ctx.Cost.ZoneCheck(ctx, 1)
		}
		if pruned {
			// Not counted in the global pruned-pages metric: the pass's
			// physical skip was already counted once, by the coordinator,
			// when it advanced past the page. This consumer merely observed
			// the skip; its view of it lands on the span via PagesPruned().
			continue
		}
		// Per-consumer charges: every query interprets the tuples itself.
		ctx.Cost.ScanTuples(ctx, float64(page.NumRows()))
		s.view.Alias(&page.Data, nil)
		if s.filter != nil {
			s.sel = expr.FilterBatch(s.filter, &s.view, s.sel, &s.meter)
			ctx.ChargeExpr(&s.meter)
			if len(s.sel) == 0 {
				continue
			}
			s.view.Sel = s.sel
		}
		return &s.view, nil
	}
}

func (s *sharedScanOp) Close(ctx *Ctx) error {
	if s.cons != nil {
		if ctx.Obs != nil {
			// Fill the span's shared-pass detail before detaching: where
			// this consumer entered the circular pass, how many surfaced
			// pages it saw, and how many pass steps it skipped as pruned.
			sp := ctx.Obs.Cur()
			sp.Shared = true
			sp.SharedEntry = s.cons.Entry()
			sp.SharedSeen = s.cons.PagesSeen()
			sp.SharedPruned = s.cons.PagesPruned()
		}
		s.cons.Close()
		s.cons = nil
	}
	s.view, s.sel = expr.Batch{}, nil
	return nil
}

// ScanLeaf builds the physical leaf for one plan.Scan during lowering —
// the hook CompileLeaf uses to make every scan a shared-scan consumer.
type ScanLeaf func(*plan.Scan) Operator

// CompileLeaf lowers a plan through the single compile switch (see
// parallel.go) but produces every scan leaf through leaf, and no heap
// fragment: the leaves coordinate through external machinery (a shared
// pass) that owns their page order, so no pump can drive them, and every
// operator above them takes its Operator-input form.
func CompileLeaf(n plan.Node, leaf ScanLeaf) Operator {
	return compile(n, 1, leaf)
}
