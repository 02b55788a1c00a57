// Package exec executes logical plans over real rows while charging every
// operation's estimated CPU cycles and I/O to the simulated machine. The
// result is a query processor whose answers are computed for real but whose
// time and energy come from the hardware models — which is what lets PVC
// settings change a workload's joules without changing its answers.
package exec

import (
	"math"

	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/storage"
)

// CostModel holds the per-operation cycle constants of one engine profile.
// Two presets (in package engine) model the paper's commercial DBMS and
// MySQL's MEMORY engine; the split between Compute and MemStall cycles is
// what makes one workload CPU-bound and the other memory-punctuated.
type CostModel struct {
	// Scan: per-tuple interpretation cost and per-page streaming cost.
	ScanTupleCycles       float64 // compute, per row
	ScanTupleStallCycles  float64 // memstall, per row
	PageStreamCyclesPerKB float64 // stream, per KB of page data

	// Hash join.
	BuildCycles      float64 // compute, per build row
	BuildStallCycles float64 // memstall, per build row (hash table writes)
	ProbeCycles      float64 // compute, per probe row
	ProbeStallCycles float64 // memstall, per probe row (bucket chases)
	MatchCycles      float64 // compute, per emitted match

	// Aggregation.
	AggCycles      float64 // compute, per input row
	AggStallCycles float64 // memstall, per input row

	// Sort.
	SortCmpCycles float64 // compute, per comparison (n·log₂n of them)

	// Zone maps: the cost of consulting a page's min/max entries against
	// the pushed-down predicate, charged per examined page whenever a scan
	// runs with pruning active. A pruned page costs exactly this — no
	// buffer-pool access, no disk read, no stream or tuple work — which is
	// what turns page skipping into a simulated-joules win, not just a
	// wall-clock one.
	ZoneCheckCycles float64 // compute, per examined page when pruning

	// Result path: server-side materialization/wire cost (bandwidth-bound
	// Stream work) and client-side receive cost. The client (a JDBC
	// application in the paper, running on the SUT) builds an object per
	// row — pointer-chasing, cache-missing work charged as MemStall.
	ResultRowCycles float64 // stream, per result row, server side
	ResultKBCycles  float64 // stream, per KB of result, server side
	ClientRowCycles float64 // memstall, per result row, client side
	// ClientGCPerMRow models collector pressure in the client runtime:
	// the per-row receive cost is multiplied by
	// 1 + ClientGCPerMRow · min(resultRows, ClientGCSaturationRows)/1e6.
	// Large materialized results (QED's merged batches) pay heavily;
	// ordinary result sets barely notice.
	ClientGCPerMRow        float64
	ClientGCSaturationRows float64
	ExprCycleMultiple      float64 // scales expr-tree costs (interpreter weight)
}

// ClientRowFactor returns the GC-pressure multiplier for a result of
// equivRows rows.
func (c CostModel) ClientRowFactor(equivRows float64) float64 {
	if c.ClientGCPerMRow <= 0 {
		return 1
	}
	r := equivRows
	if c.ClientGCSaturationRows > 0 && r > c.ClientGCSaturationRows {
		r = c.ClientGCSaturationRows
	}
	return 1 + c.ClientGCPerMRow*r/1e6
}

// SortCycles is the comparison-model cost of sorting n rows:
// SortCmpCycles·n·log₂n compute plus a quarter of that in memory stalls.
// It is the one definition of the charge: the executor charges it
// (Ctx.chargeSort) and the optimizer estimates with it (opt's sortCost), so
// the two can differ only by the cardinality guess.
func (c CostModel) SortCycles(n float64) (compute, stall float64) {
	if n <= 1 {
		return 0, 0
	}
	return c.SortCmpCycles * n * math.Log2(n), 0.25 * c.SortCmpCycles * n * math.Log2(n)
}

// Ctx is the execution context shared by all operators of one query: the
// CPU that charges work, the optional buffer pool, cost constants, and
// per-kind cycle accumulators flushed at page granularity (so the power
// trace stays compact while totals remain exact).
type Ctx struct {
	CPU  *cpu.CPU
	Pool *storage.BufferPool // nil for an all-in-memory engine
	Cost CostModel

	// Amplify scales all charged cycles (default 1 when zero). Running a
	// scale-factor-s dataset with Amplify=1/s emulates the full-scale
	// workload's absolute runtimes: each generated row stands for 1/s
	// rows of the paper's dataset.
	Amplify float64

	// PageHook, if set, runs once per scanned page — the engine uses it
	// to inject the background disk traffic the paper observed on the
	// commercial system even with a warm cache.
	PageHook func()

	// BatchSize is the target rows per execution batch; zero selects
	// expr.DefaultBatchCapacity.
	BatchSize int

	// Obs, when non-nil, receives a copy of every charge tagged with the
	// operator span that made it — the per-query profile collector. All
	// observation sites are guarded by a nil check, so a disabled profile
	// costs one branch and allocates nothing; and the collector only ever
	// reads, so simulated results and charges are identical either way.
	Obs *obsv.Collector

	acc [3]float64 // indexed by cpu.WorkKind
}

// BatchTarget returns the effective rows-per-batch target.
func (c *Ctx) BatchTarget() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return expr.DefaultBatchCapacity
}

func (c *Ctx) amp() float64 {
	if c.Amplify <= 0 {
		return 1
	}
	return c.Amplify
}

// Charge accumulates cycles of the given kind.
func (c *Ctx) Charge(kind cpu.WorkKind, cycles float64) {
	a := cycles * c.amp()
	c.acc[kind] += a
	if c.Obs != nil {
		c.Obs.Charge(int(kind), a)
	}
}

// ChargeExpr drains an expression cost meter into compute work, scaled by
// the profile's interpreter weight.
func (c *Ctx) ChargeExpr(m *expr.Cost) {
	mult := c.Cost.ExprCycleMultiple
	if mult == 0 {
		mult = 1
	}
	a := m.Drain() * mult * c.amp()
	c.acc[cpu.Compute] += a
	if c.Obs != nil {
		c.Obs.Charge(int(cpu.Compute), a)
	}
}

// chargePageStream charges the physical-read side of surfacing one heap
// page: the background-I/O page hook and the memory stream that moves the
// page's bytes. Scan paths must route this through exactly one call per
// physical page read — once per page for a heap fragment (morselPump.next),
// once per PASS for shared scans (sharedScanOp) — so a shared scan driven
// alone stays simulation-identical to a private one by construction.
func (c *Ctx) chargePageStream(bytes int64) {
	if c.PageHook != nil {
		c.PageHook()
	}
	if c.Obs != nil {
		c.Obs.PageRead(bytes)
	}
	c.Charge(cpu.Stream, c.Cost.PageStreamCyclesPerKB*float64(bytes)/1024)
}

// chargeZoneCheck charges the zone-map consult for one examined page.
// Scans with pruning active charge it for every page they look at —
// pruned or read — so enabling pruning on an unprunable workload costs a
// little, exactly like a real engine's min/max check.
func (c *Ctx) chargeZoneCheck() {
	c.Charge(cpu.Compute, c.Cost.ZoneCheckCycles)
}

// chargeSort charges the cost of sorting n rows (CostModel.SortCycles). A
// sort over a heap fragment charges it once on the total row count, never
// per run, because the simulated cost models the algorithm, not the
// schedule.
func (c *Ctx) chargeSort(n float64) {
	if compute, stall := c.Cost.SortCycles(n); compute > 0 {
		c.Charge(cpu.Compute, compute)
		c.Charge(cpu.MemStall, stall)
	}
}

// chargePageTuples charges the per-consumer interpretation of one page's
// rows — work every query pays for every page it processes, shared pass
// or not.
func (c *Ctx) chargePageTuples(nRows int) {
	c.Charge(cpu.Compute, c.Cost.ScanTupleCycles*float64(nRows))
	c.Charge(cpu.MemStall, c.Cost.ScanTupleStallCycles*float64(nRows))
}

// Flush runs all accumulated work on the CPU, in kind order.
func (c *Ctx) Flush() {
	for kind, cycles := range c.acc {
		if cycles > 0 {
			c.CPU.Run(cycles, cpu.WorkKind(kind))
			c.acc[kind] = 0
		}
	}
}
