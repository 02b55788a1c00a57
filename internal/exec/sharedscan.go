package exec

import (
	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
)

// Shared scans. A scan that rides a table's shared pass (internal/scanshare)
// is a fragment like any other, driven by a morsel pump of its own, so its
// producers run the consumer's stages, and its aggregation, sort or probe
// sink, in parallel. Two things differ (morselPump.open and next): the
// pump walks pass positions from the page where its consumer joined the
// pass, and for each page it takes it steps the pass with Consumer.Next and
// charges in the pass's order — the pass's pool access and page stream
// when the step advanced it, the zone check, tuple interpretation, stage
// meters. The pulls, the pass and every charge stay on the statement's
// goroutine, so a shared scan driven alone is simulation-identical to a
// private one.

// NewSharedScan returns a shared-scan leaf over table: a scan whose pump
// attaches to coord on Open, returns its lap's pages with surviving rows,
// one per Next, and detaches on Close. filter may be nil for a full scan.
// Its one producer runs inline; CompileShared sizes a statement's pumps.
func NewSharedScan(coord *scanshare.Coordinator, table *catalog.Table, filter expr.Expr) Operator {
	return fusedScan(&fragment{table: table, scanFilter: expr.CompileFilter(filter), schema: table.Schema, pass: coord}, 1)
}

// ScanLeaf builds the shared-scan leaf for one plan.Scan during lowering:
// NewSharedScan over the pass the scan is to ride.
type ScanLeaf func(*plan.Scan) Operator

// CompileShared lowers a plan as CompileParallel does, with every scan on
// the shared pass of the leaf that leaf builds for it.
func CompileShared(n plan.Node, workers int, leaf ScanLeaf) Operator {
	return compile(n, max(workers, 1), leaf, nil)
}

// CompileLeaf is CompileShared with one worker: every pump runs inline.
func CompileLeaf(n plan.Node, leaf ScanLeaf) Operator { return CompileShared(n, 1, leaf) }

// leafFragment returns the fragment of a leaf a ScanLeaf built.
func leafFragment(op Operator) *fragment {
	if w, ok := op.(*spanOp); ok {
		op = w.inner
	}
	return op.(*fusedOp).pump.frag
}
