package engine

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/hw/disk"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/storage"
)

// Result is a fully materialized query result.
type Result struct {
	Schema *catalog.Schema
	Rows   []expr.Row
}

// ExecStats describes one statement execution.
type ExecStats struct {
	Duration sim.Duration
	RowsOut  int64
	// BytesOut is the estimated result wire size.
	BytesOut int64
	// Pool traffic for disk-backed engines (zero for memory engines).
	PoolHits, PoolMisses int64
}

// Engine is one database engine instance bound to a simulated machine.
type Engine struct {
	prof Profile
	mach Machine
	cat  *catalog.Catalog
	pool *storage.BufferPool
	rng  *sim.RNG
	// profiling is the engine default for per-query execution profiles (see
	// Rows.Profile); Stmt.Profile turns one on for a single statement.
	// Simulated results, durations, and joules are byte-identical either
	// way: the profiler only observes the charges the engine already makes.
	profiling bool
}

// Machine is the slice of the simulated system an engine needs: a CPU to
// charge work to and a blocking disk-read primitive.
type Machine interface {
	CPUModel() *cpu.CPU
	BlockingRead(n int64, pattern disk.Pattern) sim.Duration
}

// New returns an engine with an empty catalog on the given machine.
func New(prof Profile, mach Machine) *Engine {
	e := &Engine{
		prof: prof,
		mach: mach,
		cat:  catalog.NewCatalog(),
		rng:  sim.NewRNG(prof.Seed),
	}
	if !prof.MemoryEngine {
		if prof.PoolBytes <= 0 {
			panic("engine: disk-backed profile needs a buffer pool size")
		}
		e.pool = storage.NewBufferPool(prof.PoolBytes, &reader{
			m:      mach,
			amp:    prof.Amplification(),
			extent: prof.ExtentBytes,
		})
	}
	return e
}

// reader adapts the machine to the buffer pool's DiskReader: it amplifies
// read volume per the profile and models tablespace fragmentation by
// charging one seek per extent of sequentially streamed bytes.
type reader struct {
	m      Machine
	amp    float64
	extent int64
	carry  int64 // sequential bytes since the last charged seek
}

func (r *reader) BlockingRead(n int64, sequential bool) {
	n = int64(float64(n) * r.amp)
	if !sequential {
		r.carry = 0
		r.m.BlockingRead(n, disk.Random)
		return
	}
	if r.extent > 0 {
		r.carry += n
		for r.carry >= r.extent {
			r.carry -= r.extent
			// A zero-byte random read is a pure head seek: the extent
			// boundary cost on a fragmented heap file.
			r.m.BlockingRead(0, disk.Random)
		}
	}
	r.m.BlockingRead(n, disk.Sequential)
}

// Profile returns the engine's configuration.
func (e *Engine) Profile() Profile { return e.prof }

// SetProfiling toggles per-query execution profiles. When on, every
// statement's Rows carries a Profile — an operator-span tree with actual
// rows, attributed simulated joules and time, and (for optimizer-routed
// statements) the estimates next to the actuals. Profiling never changes
// what the simulation computes; it only watches it.
func (e *Engine) SetProfiling(on bool) { e.profiling = on }

// Catalog returns the table registry; loaders insert data through it.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Pool returns the buffer pool, or nil for memory engines.
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// WarmAll marks every table resident, the state after the paper's warm-up
// runs. Memory engines are always warm.
func (e *Engine) WarmAll() {
	if e.pool == nil {
		return
	}
	for _, name := range e.cat.Names() {
		t := e.cat.MustTable(name)
		e.pool.Warm(name, t.Heap)
	}
}

// ColdStart empties the buffer pool, as after the reboot in the paper's
// §3.5 cold experiment. Memory engines cannot be cold.
func (e *Engine) ColdStart() {
	if e.pool != nil {
		e.pool.InvalidateAll()
	}
}

// Rows is a streaming query result: an iterator over batches produced by
// the vectorized executor. Consumers pull batches with Next; each batch is
// valid until the following Next call. Statistics (and the trailing result-
// path cost accounting) are finalized when the stream is exhausted or
// closed — Close drains any unconsumed input first, because the simulated
// engines under study never terminate a statement early.
type Rows struct {
	e   *Engine
	op  exec.Operator
	ctx *exec.Ctx
	par int // simulated cores this statement runs on

	start      sim.Time
	poolBefore storage.PoolStats
	rowsOut    int64
	bytesOut   int64
	stats      ExecStats
	finished   bool

	// obs collects this statement's execution profile when it is profiled;
	// profile is the finalized result (see Profile).
	obs     *obsv.Collector
	profile *obsv.Profile
}

// Profile returns the statement's execution profile, draining the stream
// first if the consumer has not. It returns nil when the statement was not
// profiled (see Stmt.Profile).
func (r *Rows) Profile() *obsv.Profile {
	r.Close()
	return r.profile
}

// Stmt is one statement as the engine's one entry (start) takes it: the
// plan plus what only the caller knows. Stmt{Plan: p} is a plain Query.
type Stmt struct {
	// Plan is what runs. In a RunWindow a nil Plan rides the window without
	// executing (a server's EXPLAIN): counted in its size, never started.
	Plan plan.Node
	// QueuedAt, with Queued true, is when the statement entered an admission
	// queue (a server-side delay, not new simulated work): a profiled
	// statement gains a leading QueueWait span covering [QueuedAt, start],
	// so EXPLAIN ANALYZE shows where response time went before execution
	// began. The wait is observation only — no cycles, no joules — because
	// the machine spent it running other statements, whose profiles own
	// that energy.
	QueuedAt sim.Time
	Queued   bool
	// Profile profiles this statement even when the engine default
	// (SetProfiling) is off.
	Profile bool
	// Pulls is how many batches RunWindow takes per round; below 1 means 1.
	Pulls int
}

// Query starts executing a plan and returns a streaming result iterator.
// Statement overhead is charged up front; per-batch work is charged as the
// consumer pulls. The old fully-materialized Exec is a thin wrapper over
// this.
func (e *Engine) Query(p plan.Node) *Rows { return e.start(nil, Stmt{Plan: p}) }

// start is the one statement entry — Query, SharedSession.Query,
// AnalyzeQuery and every member of a RunWindow begin here: it chooses the
// plan and its scan leaves (sess nil means private scans), charges statement
// overhead, builds the execution context, and opens the operator tree as a
// streaming result.
func (e *Engine) start(sess *SharedSession, st Stmt) *Rows {
	profiling := e.profiling || st.Profile
	// With an objective enabled, re-derive the plan through the optimizer
	// (join order, build sides, pushdown, parallelism); plans the extractor
	// does not recognize fall back to executing as given. On a session the
	// optimizer also weighs the shared attach against a private scan:
	// sharing amortizes page streaming across the expected concurrency
	// (energy down) while stretching per-query response as the queries
	// time-share the machine.
	p, par, shared := st.Plan, e.prof.Parallelism, sess != nil
	sharedQ := 0
	if shared {
		sharedQ = max(2, sess.expected)
	}
	var pi *obsv.PlanInfo // the estimate record, for a profiled statement
	if lowered, ch, info, ok := e.optimize(p, sharedQ, profiling); ok {
		p, par, pi, shared = lowered, ch.Parallelism, info, ch.Shared
	}
	// Scan→filter→project fragments, private or on a shared pass, run
	// through the morsel pump: inline for Workers <= 1, across the
	// profile's worker goroutines above. The operators, and all simulated
	// accounting, are the same either way.
	var op exec.Operator
	if shared {
		op = exec.CompileShared(p, e.prof.Workers, sess.sharedLeaf)
	} else {
		op = exec.CompileParallel(p, e.prof.Workers)
	}
	if par < 1 {
		par = 1
	}
	obsv.Queries.Inc()
	c := e.mach.CPUModel()
	c.SetParallelism(par)
	// The machine is single-threaded between pulls: parallelism is raised
	// only while executor work runs (here and inside Next), so an
	// abandoned iterator can never leave the shared CPU misconfigured.
	defer c.SetParallelism(1)

	r := &Rows{e: e, op: op, par: par, start: c.Clock().Now()}
	if e.pool != nil {
		r.poolBefore = e.pool.Stats()
	}
	if profiling {
		r.obs = obsv.NewCollector("statement", r.start)
		if pi != nil {
			r.obs.SetPlan(pi)
		}
		if st.Queued && st.QueuedAt <= r.start {
			// The admission-queue wait renders as the statement's first
			// child span. Its Seconds are set directly — no charge backs
			// them, because queue time is other statements' execution time
			// and their profiles already own that energy.
			qs := r.obs.OpenSpan(obsv.KindQueue, "QueueWait", "", st.QueuedAt)
			qs.Seconds = r.start.Sub(st.QueuedAt).Seconds()
			r.obs.Pop(r.start)
		}
		// The observer is installed only while this statement's work runs
		// (bracketed here and in Next, exactly like parallelism), so
		// co-admitted queries interleaving pulls on one machine each
		// observe only their own clock advances.
		c.SetObserver(r.obs)
		defer c.SetObserver(nil)
	}

	// Statement overhead: parse, optimize, round trip.
	c.Run(e.prof.QueryOverheadCycles, cpu.Compute)

	ctx := &exec.Ctx{CPU: c, Pool: e.pool, Cost: e.prof.Cost, Amplify: e.prof.Amplification(), BatchSize: e.prof.BatchSize,
		ZoneMapPruning: e.prof.ZoneMapPruning, Obs: r.obs}
	if e.prof.BGIOProbPerPage > 0 && !e.prof.MemoryEngine {
		// Amplified page counts mean amplified background traffic.
		prob := e.prof.BGIOProbPerPage * e.prof.Amplification()
		ctx.PageHook = func() {
			if e.rng.Float64() < prob {
				e.mach.BlockingRead(e.prof.BGIOBytes, disk.Random)
			}
		}
	}
	r.ctx = ctx
	if err := r.op.Open(ctx); err != nil {
		// No operator errors today; finalize so the iterator is inert.
		r.finish()
	}
	return r
}

// Schema describes the result rows.
func (r *Rows) Schema() *catalog.Schema { return r.op.Schema() }

// Start returns the simulated instant the statement started (a scheduler's
// queue wait ends there).
func (r *Rows) Start() sim.Time { return r.start }

// Next returns the next result batch — columnar, read-only — or nil when
// the stream is exhausted. The batch is owned by the executor and valid
// until the following call. To keep its rows, gather them into a batch of
// your own (expr.NewBatch, then Batch.AppendBatch), which copies payload to
// payload and keeps dictionary codes; materialize them as expr.Rows
// (Batch.AppendRowsTo) only where row-at-a-time values are what is wanted.
func (r *Rows) Next() (*expr.Batch, error) {
	if r.finished {
		return nil, nil
	}
	c := r.e.mach.CPUModel()
	c.SetParallelism(r.par)
	defer c.SetParallelism(1)
	if r.obs != nil {
		c.SetObserver(r.obs)
		defer c.SetObserver(nil)
	}
	b, err := r.op.Next(r.ctx)
	if err != nil {
		r.finish()
		return nil, err
	}
	if b == nil {
		r.finish()
		return nil, nil
	}
	obsv.Batches.Inc()
	n := b.Len()
	obsv.RowsOut.Add(int64(n))
	r.rowsOut += int64(n)
	r.bytesOut += b.Bytes()
	return b, nil
}

// Close drains any remaining batches (completing the statement's simulated
// work) and finalizes statistics. It is idempotent.
func (r *Rows) Close() error {
	for !r.finished {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the execution statistics; it drains and closes the stream
// first if the consumer has not.
func (r *Rows) Stats() ExecStats {
	r.Close()
	return r.stats
}

// finish charges the result path (exec.CostModel.Result) and freezes the
// statistics.
func (r *Rows) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.op.Close(r.ctx)

	e, ctx := r.e, r.ctx
	c := e.mach.CPUModel()
	if r.obs != nil {
		// The result path gets its own span so its charges do not land on
		// the statement root undifferentiated.
		r.obs.OpenSpan(obsv.KindResult, "Result", "", c.Clock().Now())
	}
	e.prof.Cost.Result(ctx, float64(r.rowsOut), float64(r.bytesOut), e.prof.Amplification())
	ctx.Flush()

	end := c.Clock().Now()
	if r.obs != nil {
		r.obs.Pop(end)
		r.obs.Root().Rows = r.rowsOut
		r.profile = r.obs.Finish(end)
	}
	c.SetParallelism(1)
	r.stats = ExecStats{
		Duration: end.Sub(r.start),
		RowsOut:  r.rowsOut,
		BytesOut: r.bytesOut,
	}
	obsv.QuerySeconds.Observe(r.stats.Duration.Seconds())
	obsv.QueryJoules(e.prof.Objective.String()).Add(float64(c.Trace().Energy(r.start, end)))
	if e.pool != nil {
		after := e.pool.Stats()
		r.stats.PoolHits = after.Hits - r.poolBefore.Hits
		r.stats.PoolMisses = after.Misses - r.poolBefore.Misses
	}
}

// Exec runs a plan to completion, charging all work and I/O to the
// machine, and returns the materialized result with execution statistics.
// It is a thin wrapper over the streaming Query iterator; this is the
// client edge where the executor's columnar batches are re-rowified.
func (e *Engine) Exec(p plan.Node) (*Result, ExecStats) {
	rows := e.Query(p)
	res := &Result{Schema: rows.Schema()}
	for {
		b, err := rows.Next()
		if err != nil {
			panic(fmt.Sprintf("engine: executor error: %v", err))
		}
		if b == nil {
			break
		}
		res.Rows = b.AppendRowsTo(res.Rows)
	}
	return res, rows.Stats()
}

// MustTable is a convenience lookup used by workload builders.
func (e *Engine) MustTable(name string) *catalog.Table { return e.cat.MustTable(name) }

func (e *Engine) String() string {
	return fmt.Sprintf("%s [%d tables, %.1f MB]", e.prof.Name, len(e.cat.Names()),
		float64(e.cat.TotalBytes())/(1<<20))
}
