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

// Charger accumulates the addends of a charge, by kind: *Ctx on the simulated
// machine, the optimizer's per-plan cycle record in an estimate.
type Charger interface {
	Charge(kind cpu.WorkKind, cycles float64)
}

// The functions below are the one definition of each charge. Each hands its
// addends, in a fixed order, to whatever accumulates them: the executor
// passes its *Ctx with the rows and bytes it counted, the optimizer its
// estimate with the rows and bytes it predicts — so an estimate and the
// bill it predicts can differ by cardinality alone. No other file reads a
// cycle constant (CI's "Charges defined once" step). Every addend is its
// own Charge call, never pre-summed with another of its kind: float
// addition is not associative, and the goldens pin the sums' bits. The
// receivers are pointers because the optimizer calls these in its
// enumeration's inner loop and the model is twenty-odd words.

// PageStream charges moving one physically read page's bytes (or, in an
// estimate, a whole heap's) through memory. A shared pass fires it once per
// page surfaced, however many consumers are attached.
func (m *CostModel) PageStream(to Charger, bytes float64) {
	to.Charge(cpu.Stream, m.PageStreamCyclesPerKB*bytes/1024)
}

// ZoneCheck charges consulting the zone maps of pages pages. A scan with
// pruning active charges it for every page it looks at — pruned or read —
// so pruning on an unprunable workload costs a little, exactly like a real
// engine's min/max check.
func (m *CostModel) ZoneCheck(to Charger, pages float64) {
	to.Charge(cpu.Compute, m.ZoneCheckCycles*pages)
}

// ScanTuples charges interpreting rows scanned tuples — work every query
// pays for every page it processes, shared pass or not.
func (m *CostModel) ScanTuples(to Charger, rows float64) {
	to.Charge(cpu.Compute, m.ScanTupleCycles*rows)
	to.Charge(cpu.MemStall, m.ScanTupleStallCycles*rows)
}

// Expr charges cycles of metered expression evaluation (an expr.Cost drain,
// or expr.EvalCycles × rows in an estimate), scaled by the profile's
// interpreter weight.
func (m *CostModel) Expr(to Charger, cycles float64) {
	mult := m.ExprCycleMultiple
	if mult == 0 {
		mult = 1
	}
	to.Charge(cpu.Compute, cycles*mult)
}

// JoinBuild charges inserting rows build-side rows into the hash table.
func (m *CostModel) JoinBuild(to Charger, rows float64) {
	to.Charge(cpu.Compute, m.BuildCycles*rows)
	to.Charge(cpu.MemStall, m.BuildStallCycles*rows)
}

// JoinProbe charges looking up rows probe-side rows and emitting the
// matches they found (counted before the residual predicate, which is
// charged through Expr).
func (m *CostModel) JoinProbe(to Charger, rows, matches float64) {
	to.Charge(cpu.Compute, m.ProbeCycles*rows)
	to.Charge(cpu.MemStall, m.ProbeStallCycles*rows)
	to.Charge(cpu.Compute, m.MatchCycles*matches)
}

// AggFold charges folding rows input rows into the group table.
func (m *CostModel) AggFold(to Charger, rows float64) {
	to.Charge(cpu.Compute, m.AggCycles*rows)
	to.Charge(cpu.MemStall, m.AggStallCycles*rows)
}

// AggEmit charges emitting one output row per group.
func (m *CostModel) AggEmit(to Charger, groups float64) {
	to.Charge(cpu.Compute, m.AggCycles*groups)
}

// Sort charges the comparison-model cost of sorting n rows:
// SortCmpCycles·n·log₂n compute plus a quarter of that in memory stalls. A
// sort over a heap fragment charges it once on the total row count, never
// per run, because the simulated cost models the algorithm, not the
// schedule.
func (m *CostModel) Sort(to Charger, n float64) {
	if n <= 1 {
		return
	}
	to.Charge(cpu.Compute, m.SortCmpCycles*n*math.Log2(n))
	to.Charge(cpu.MemStall, 0.25*m.SortCmpCycles*n*math.Log2(n))
}

// Result charges the result path for rows rows of bytes wire bytes:
// server-side materialization and streaming, then the client — hosted on
// the same machine, as the paper's JDBC client was — receiving the rows
// under collector pressure that grows with the full-scale result size
// (rows × amplify).
func (m *CostModel) Result(to Charger, rows, bytes, amplify float64) {
	to.Charge(cpu.Stream, m.ResultRowCycles*rows)
	to.Charge(cpu.Stream, m.ResultKBCycles*bytes/1024)
	to.Charge(cpu.MemStall, m.ClientRowCycles*rows*m.ClientRowFactor(rows*amplify))
}

// ClientRowFactor returns the GC-pressure multiplier for a result of
// equivRows rows.
func (m *CostModel) ClientRowFactor(equivRows float64) float64 {
	if m.ClientGCPerMRow <= 0 {
		return 1
	}
	r := equivRows
	if m.ClientGCSaturationRows > 0 && r > m.ClientGCSaturationRows {
		r = m.ClientGCSaturationRows
	}
	return 1 + m.ClientGCPerMRow*r/1e6
}

// Amplification is the effective work amplification for a configured value:
// unset (zero or negative) scales nothing.
func Amplification(configured float64) float64 {
	if configured <= 0 {
		return 1
	}
	return configured
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

	// ZoneMapPruning lets this statement's scans skip pages whose zone maps
	// prove no row can pass the pushed-down predicate (fragment.prunes).
	// Results are identical either way; the charge stream is not.
	ZoneMapPruning bool

	// Obs, when non-nil, receives a copy of every charge tagged with the
	// operator span that made it — the per-query profile collector. All
	// observation sites are guarded by a nil check, so a disabled profile
	// costs one branch and allocates nothing; and the collector only ever
	// reads, so simulated results and charges are identical either way.
	Obs *obsv.Collector

	// Mem is the statement's lease on its blocking operators' state. The
	// engine releases it once, after closing the operator tree.
	Mem Account

	acc [3]float64 // indexed by cpu.WorkKind
}

// BatchTarget returns the effective rows-per-batch target.
func (c *Ctx) BatchTarget() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return expr.DefaultBatchCapacity
}

// Charge accumulates cycles of the given kind.
func (c *Ctx) Charge(kind cpu.WorkKind, cycles float64) {
	a := cycles * Amplification(c.Amplify)
	c.acc[kind] += a
	if c.Obs != nil {
		c.Obs.Charge(int(kind), a)
	}
}

// ChargeExpr drains an expression cost meter into compute work
// (CostModel.Expr).
func (c *Ctx) ChargeExpr(m *expr.Cost) { c.Cost.Expr(c, m.Drain()) }

// chargePageStream charges the physical-read side of surfacing one heap
// page: the background-I/O page hook and the memory stream that moves the
// page's bytes. Scan paths must route this through exactly one call per
// physical page read — once per page a private fragment reads
// (morselPump.next), once per page a shared PASS surfaces, on the consumer
// whose pull advanced it (morselPump.surface) — so a shared scan driven
// alone stays simulation-identical to a private one by construction. A
// consumer's per-tuple work runs on its pump's producers; its pulls, the
// pass and this charge stay on the statement's one goroutine.
func (c *Ctx) chargePageStream(bytes int64) {
	if c.PageHook != nil {
		c.PageHook()
	}
	if c.Obs != nil {
		c.Obs.PageRead(bytes)
	}
	c.Cost.PageStream(c, float64(bytes))
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
