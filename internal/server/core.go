// Package server is ecoDB's multi-tenant query front end: an admission
// scheduler plus an HTTP layer that lets thousands of concurrent client
// sessions share one simulated machine. Statements are parsed on their
// own connection goroutines but every engine touch — admission, execution,
// clock advance — happens on a single scheduler goroutine, preserving the
// cooperative single-threaded execution model the whole simulation is
// built on.
//
// Admission is the energy lever. Instead of running each statement the
// moment it arrives (the private-scan baseline), the scheduler holds
// best-effort statements in a bounded queue until a co-admission window
// fills, then runs the batch as one engine.RunWindow on a SharedSession so
// all of its scans ride each table's circular pass: page I/O and page
// streaming are charged once per pass no matter how many statements consume
// it. Three policies are provided — see Policy. Deadline-urgent statements
// bypass the window; everything else waits for the next flush batch.
//
// The charging-model invariant carries through: a flush is the same
// engine.RunWindow an embedded caller (workload.RunShared) runs, so for a
// fixed admission and pull order, simulated results, durations, and joules
// are bit-identical to it. Admission metadata — priorities, queue
// timestamps, profiling — is policy and observation, never physics. The
// serial-replay test in this package and the invariants section of
// docs/ARCHITECTURE.md pin this down.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/sql"
)

// Policy selects how the scheduler turns the admission queue into engine
// work.
type Policy int

const (
	// PolicyPrivate is the baseline: statements execute one at a time in
	// arrival order, each a window of one on private scans — no sharing.
	PolicyPrivate Policy = iota
	// PolicyShared gathers statements into co-admission windows (flush
	// batches) and admits each batch through the shared-scan session,
	// ordered by attach priority (higher first, arrival order within a
	// priority). The drain is priority-weighted round-robin: a statement
	// at priority p gets 1+max(0,p) pulls per round, so it finishes its
	// lap sooner without changing what anything is charged.
	PolicyShared
	// PolicyDeadline is PolicyShared with earliest-deadline-first batch
	// order, and statements whose remaining budget is at or below
	// Config.UrgentSlack bypass the flush window — the batch flushes
	// immediately rather than waiting for more co-admissions.
	PolicyDeadline
)

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "private":
		return PolicyPrivate, nil
	case "shared":
		return PolicyShared, nil
	case "deadline":
		return PolicyDeadline, nil
	}
	return 0, fmt.Errorf("server: unknown admission policy %q (want private, shared or deadline)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyPrivate:
		return "private"
	case PolicyShared:
		return "shared"
	case PolicyDeadline:
		return "deadline"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config tunes the admission scheduler.
type Config struct {
	// Policy is the admission policy.
	Policy Policy
	// MaxInflight bounds the admission queue: statements accepted but not
	// yet responded to. A statement arriving at the bound is rejected with
	// ErrOverloaded. Zero means zero capacity — every statement is
	// rejected — which is the honest reading, not a default; use
	// DefaultConfig for sensible values.
	MaxInflight int
	// FlushThreshold flushes a co-admission window as soon as this many
	// statements are waiting (shared and deadline policies).
	FlushThreshold int
	// FlushWait bounds how long a statement waits for co-admission before
	// its window flushes anyway. In the open-loop harness this is
	// simulated time; in live serving the scheduler waits the same span of
	// real time (the simulated clock does not advance between batches).
	FlushWait sim.Duration
	// UrgentSlack is the deadline policy's bypass threshold: a statement
	// whose remaining budget is ≤ UrgentSlack (or already negative)
	// flushes the window immediately.
	UrgentSlack sim.Duration
	// Profiling runs every statement with the engine profiler on, which
	// partitions each co-admitted window's energy exactly per statement
	// (per-tenant and per-response joules become exact instead of an even
	// split). Observation never charges, so this is bit-neutral.
	Profiling bool
}

// DefaultConfig returns the serving defaults: shared admission, a deep
// queue, flush at 4 waiting statements or 20 ms, exact energy attribution.
func DefaultConfig() Config {
	return Config{
		Policy:         PolicyShared,
		MaxInflight:    4096,
		FlushThreshold: 4,
		FlushWait:      0.020,
		UrgentSlack:    0.020,
		Profiling:      true,
	}
}

// StmtKind distinguishes what a request wants run.
type StmtKind int

const (
	// StmtQuery executes the bound plan and returns rows.
	StmtQuery StmtKind = iota
	// StmtExplain renders the optimizer's plan for SQL without executing.
	StmtExplain
	// StmtAnalyze executes the bound plan with profiling forced on and
	// returns the rendered execution profile (EXPLAIN ANALYZE), queue-wait
	// span included.
	StmtAnalyze
)

// Request is one statement submitted for admission.
type Request struct {
	// ID labels the statement in its Response and in RunOpenLoop's
	// Batches; defaults to "s<seq>".
	ID string
	// Tenant attributes the statement's per-tenant accounting; defaults
	// to "default".
	Tenant string
	// SQL is the statement text (used by StmtExplain, which re-plans it).
	SQL string
	// Plan is the bound plan for StmtQuery and StmtAnalyze.
	Plan plan.Node
	// Kind is what to do with the statement.
	Kind StmtKind
	// Priority is the attach priority for shared admission: higher
	// priorities are admitted earlier in the batch and drained more often
	// per round. Zero is best-effort.
	Priority int
	// Deadline, when positive, is the statement's simulated-time response
	// budget measured from admission. The deadline policy orders by it
	// and lets urgent statements bypass the flush window; every policy
	// reports misses.
	Deadline sim.Duration
	// CollectRows gathers the result into Response.Result (the HTTP path);
	// measurement harnesses leave it false and keep cardinalities.
	CollectRows bool
}

// Response is one statement's outcome.
type Response struct {
	ID      string
	Columns []string
	// Result is the answer of a CollectRows request, gathered payload to
	// payload into one owned columnar batch (dictionary columns keep their
	// codes); nil when no row came back. The batch comes from a pool the
	// scheduler shares with every answer it gathers: the handler encodes
	// it as is and gives it back once the body is written, and RunOpenLoop
	// gives it back once it has materialized Rows, leaving Result nil. A
	// batch an in-process caller of Do receives is its own; it never goes
	// back.
	Result *expr.Batch
	// Rows is Result materialized as rows, for in-process callers of
	// RunOpenLoop. Live Do leaves it nil.
	Rows    []expr.Row
	RowsOut int64
	// Explain carries the rendered plan or execution profile for
	// StmtExplain / StmtAnalyze.
	Explain string
	// QueueWait is the simulated time between admission-queue entry and
	// statement start; Duration the execution window; Response their sum
	// (queue entry to completion).
	QueueWait sim.Duration
	Duration  sim.Duration
	Response  sim.Duration
	// Joules is the statement's simulated CPU energy: its profiled share
	// of the co-admitted window when Config.Profiling is on, an even split
	// of the window otherwise, and the exact statement trace window under
	// the private policy.
	Joules float64
	// DeadlineMiss reports a statement that completed after its deadline.
	DeadlineMiss bool
	Err          error
}

// ErrOverloaded rejects a statement arriving at a full admission queue.
var ErrOverloaded = errors.New("server: admission queue full")

// ErrDraining rejects a statement arriving after shutdown began.
var ErrDraining = errors.New("server: draining")

// AdmittedBatch is one flush batch RunOpenLoop ran: when it was admitted
// and the statement IDs in admission order. Replaying the batches —
// advance the clock to At, co-admit the IDs' plans through a shared
// session in order, drain round-robin — reproduces the run's simulated
// energy exactly (the bit-identity contract; see the serial-replay test).
type AdmittedBatch struct {
	At     sim.Time
	Policy Policy
	IDs    []string
}

// pending is one accepted, unexecuted statement.
type pending struct {
	req         Request
	id          string
	tenant      string
	seq         int64
	arrive      sim.Time // queue-entry instant, simulated
	deadline    sim.Time // absolute; valid when hasDeadline
	hasDeadline bool
	done        chan Response // live path; nil in the open-loop harness
	resp        Response      // the response, filled by enqueue or flush
}

// Core is the admission scheduler. All methods that touch the engine —
// enqueue, flush, RunOpenLoop — must run on one goroutine (the scheduler
// loop in live serving, the caller in the open-loop harness).
type Core struct {
	cfg   Config
	sys   *core.System
	eng   *engine.Engine
	clock *sim.Clock
	sess  *engine.SharedSession

	queue    []*pending
	seq      int64
	inflight int // accepted, not yet responded

	// Live-serving machinery (see http.go).
	submit  chan *pending
	stopc   chan struct{}
	stopped chan struct{}

	mSessions, mQueued, mRejected, mBatches, mMisses *obsv.Counter
	gDepth, gActive                                  *obsv.Gauge
	hWait                                            *obsv.Histogram
}

// NewCore returns a scheduler over the system's engine. The shared-scan
// session — and its pass positions — persist for the core's lifetime, so
// successive flush batches reuse the same elevator passes.
func NewCore(cfg Config, sys *core.System) *Core {
	r := obsv.Default()
	return &Core{
		cfg:       cfg,
		sys:       sys,
		eng:       sys.Engine,
		clock:     sys.Machine.Clock,
		sess:      sys.Engine.NewSharedSession(),
		submit:    make(chan *pending), // unbuffered: an accepted send means the loop has it
		stopc:     make(chan struct{}),
		stopped:   make(chan struct{}),
		mSessions: r.Counter(obsv.MetricServerSessions),
		mQueued:   r.Counter(obsv.MetricServerQueued),
		mRejected: r.Counter(obsv.MetricServerRejected),
		mBatches:  r.Counter(obsv.MetricServerBatches),
		mMisses:   r.Counter(obsv.MetricServerDeadlineMisses),
		gDepth:    r.Gauge(obsv.MetricServerQueueDepth),
		gActive:   r.Gauge(obsv.MetricServerActive),
		hWait: r.Histogram(obsv.MetricServerQueueWait,
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}),
	}
}

// Config returns the scheduler's configuration.
func (c *Core) Config() Config { return c.cfg }

// System returns the simulated system the scheduler drives.
func (c *Core) System() *core.System { return c.sys }

// enqueue accepts or rejects one statement against the admission bound; a
// rejected statement's response is ErrOverloaded. Scheduler goroutine only.
func (c *Core) enqueue(p *pending) bool {
	if c.inflight >= c.cfg.MaxInflight {
		c.mRejected.Inc()
		p.resp = Response{ID: p.id, Err: ErrOverloaded}
		return false
	}
	c.seq++
	p.seq = c.seq
	if p.id == "" {
		p.id = fmt.Sprintf("s%d", p.seq)
	}
	if p.tenant == "" {
		p.tenant = "default"
	}
	p.arrive = c.clock.Now()
	if p.req.Deadline > 0 {
		p.deadline = p.arrive.Add(p.req.Deadline)
		p.hasDeadline = true
	}
	c.inflight++
	c.queue = append(c.queue, p)
	c.mSessions.Inc()
	c.gDepth.Set(float64(len(c.queue)))
	c.gActive.Set(float64(c.inflight))
	return true
}

// urgent reports whether some queued statement's remaining deadline
// budget is at or below the urgent slack (deadline policy only).
func (c *Core) urgent() bool {
	if c.cfg.Policy != PolicyDeadline {
		return false
	}
	now := c.clock.Now()
	for _, p := range c.queue {
		if p.hasDeadline && p.deadline.Sub(now) <= c.cfg.UrgentSlack {
			return true
		}
	}
	return false
}

// oldestArrival returns the earliest queue-entry instant in the queue.
func (c *Core) oldestArrival() sim.Time {
	t := c.queue[0].arrive
	for _, p := range c.queue[1:] {
		if p.arrive < t {
			t = p.arrive
		}
	}
	return t
}

// shouldFlush reports whether the queue is ready to flush without waiting
// for more arrivals. more reports whether the caller can still deliver
// future arrivals (false forces a flush of whatever is queued).
func (c *Core) shouldFlush(more bool) bool {
	if len(c.queue) == 0 {
		return false
	}
	if c.cfg.Policy == PolicyPrivate || !more {
		return true
	}
	if len(c.queue) >= c.cfg.FlushThreshold {
		return true
	}
	if c.urgent() {
		return true
	}
	return c.clock.Now().Sub(c.oldestArrival()) >= c.cfg.FlushWait
}

// maxWindow caps how many statements one shared or deadline flush batch
// co-admits; the rest wait for the next flush.
const maxWindow = 64

// takeBatch removes and returns the next flush batch in admission order
// under the configured policy.
func (c *Core) takeBatch() []*pending {
	switch c.cfg.Policy {
	case PolicyShared:
		// Attach priority first (higher admits earlier on the pass),
		// arrival order within a priority.
		sort.SliceStable(c.queue, func(i, j int) bool {
			if c.queue[i].req.Priority != c.queue[j].req.Priority {
				return c.queue[i].req.Priority > c.queue[j].req.Priority
			}
			return c.queue[i].seq < c.queue[j].seq
		})
	case PolicyDeadline:
		// Earliest deadline first; deadline-free statements after all
		// deadlined ones, in arrival order.
		sort.SliceStable(c.queue, func(i, j int) bool {
			pi, pj := c.queue[i], c.queue[j]
			if pi.hasDeadline != pj.hasDeadline {
				return pi.hasDeadline
			}
			if pi.hasDeadline && pi.deadline != pj.deadline {
				return pi.deadline < pj.deadline
			}
			return pi.seq < pj.seq
		})
	}
	n := len(c.queue)
	if c.cfg.Policy != PolicyPrivate && n > maxWindow {
		n = maxWindow
	}
	batch := make([]*pending, n)
	copy(batch, c.queue)
	c.queue = append(c.queue[:0], c.queue[n:]...)
	c.gDepth.Set(float64(len(c.queue)))
	return batch
}

// flush admits and executes one batch and returns it, every response
// filled in. Scheduler goroutine only.
func (c *Core) flush() []*pending {
	batch := c.takeBatch()
	if len(batch) == 0 {
		return nil
	}
	c.mBatches.Inc()
	if c.cfg.Policy == PolicyPrivate {
		// The private policy is windows of one on private scans.
		for i := range batch {
			c.execute(batch[i:i+1], nil)
		}
	} else {
		c.execute(batch, c.sess)
	}
	c.refreshGauges()
	for _, p := range batch {
		c.finishStmt(p)
	}
	return batch
}

// finishStmt finalizes one executed statement's response: deadline
// accounting, per-tenant accounting.
func (c *Core) finishStmt(p *pending) {
	r := &p.resp
	r.ID = p.id
	if p.hasDeadline && p.arrive.Add(r.Response) > p.deadline {
		r.DeadlineMiss = true
		c.mMisses.Inc()
	}
	if r.QueueWait > 0 {
		c.mQueued.Inc()
	}
	c.hWait.Observe(r.QueueWait.Seconds())
	reg := obsv.Default()
	reg.Counter(obsv.MetricServerTenantQueries + p.tenant).Inc()
	reg.FloatCounter(obsv.MetricServerTenantJoules + p.tenant).Add(r.Joules)
	c.inflight--
	c.gActive.Set(float64(c.inflight))
}

// execute runs one co-admission window through engine.RunWindow — on the
// shared-scan session, or on private scans when sess is nil — and fills
// every member's response. Statements start in window order with their
// queue-entry instant on their profile; a statement at priority p gets
// 1+max(0,p) pulls per round, so it finishes its lap sooner without changing
// what anything is charged. With all priorities zero that is one pull per
// live stream per round — the order the bit-identity contract pins.
func (c *Core) execute(window []*pending, sess *engine.SharedSession) {
	t0 := c.clock.Now()
	stmts := make([]engine.Stmt, len(window))
	executed := 0
	for i, p := range window {
		if p.req.Kind == StmtExplain {
			// Rendering the optimizer's plan is no simulated work, so it
			// rides the window unexecuted (a nil Plan) and where it renders
			// relative to the starts cannot show.
			p.resp.Explain, p.resp.Err = sql.Explain(c.eng, p.req.SQL)
			continue
		}
		executed++
		stmts[i] = engine.Stmt{
			Plan:     p.req.Plan,
			QueuedAt: p.arrive,
			Queued:   true,
			Profile:  c.cfg.Profiling || p.req.Kind == StmtAnalyze,
			Pulls:    1 + max(0, p.req.Priority),
		}
	}
	if executed == 0 {
		return
	}
	c.eng.RunWindow(sess, stmts, func(i int, b *expr.Batch) {
		p := window[i]
		if !p.req.CollectRows || b.Len() == 0 {
			return
		}
		if p.resp.Result == nil {
			p.resp.Result = newResult(b.Width())
		}
		p.resp.Result.AppendBatch(b, b.Len())
	}, func(i int, r *engine.Rows, err error) {
		// Fires on the pull that ended the stream: the clock is the
		// statement's completion instant.
		p := window[i]
		p.resp.QueueWait = r.Start().Sub(p.arrive)
		p.resp.Response = c.clock.Now().Sub(p.arrive)
		if p.resp.Err = err; err != nil {
			return
		}
		st := r.Stats()
		p.resp.RowsOut = st.RowsOut
		p.resp.Columns = columnNames(r)
		p.resp.Duration = st.Duration
		if prof := r.Profile(); prof != nil {
			p.resp.Joules = prof.Joules
			if p.req.Kind == StmtAnalyze {
				p.resp.Explain = prof.Render()
			}
		}
	})
	joules := float64(c.sys.Machine.CPU.Trace().Energy(t0, c.clock.Now()))
	obsv.Default().FloatCounter(obsv.MetricServerPolicyJoules + c.cfg.Policy.String()).Add(joules)
	switch {
	case sess == nil:
		// A private statement owns its trace window: exact, profiled or not.
		window[0].resp.Joules = joules
	case !c.cfg.Profiling:
		// Without profiles the window's energy cannot be attributed per
		// statement; split it evenly (documented approximation — turn
		// Config.Profiling on for the exact partition).
		share := joules / float64(executed)
		for _, p := range window {
			if p.req.Kind != StmtExplain && p.resp.Err == nil && p.resp.Joules == 0 {
				p.resp.Joules = share
			}
		}
	}
}

// maxPooledResultBytes is the most payload capacity a result batch may hold
// and go back to the pool, so one huge answer cannot pin its vectors in the
// process.
const maxPooledResultBytes = 1 << 20

// results holds the owned batches answers are gathered into: a steady
// stream of answers reuses the same few, vectors and all.
var results = sync.Pool{New: func() any { return new(expr.Batch) }}

// newResult returns an empty owned batch width columns wide, from the pool.
func newResult(width int) *expr.Batch {
	b := results.Get().(*expr.Batch)
	b.SetWidth(width)
	b.Reset()
	return b
}

// releaseResult gives an answer's batch back to the pool once nothing will
// read it again; nil is a no-op. A batch past maxPooledResultBytes is left
// to the collector.
func releaseResult(b *expr.Batch) {
	if b != nil && resultBytes(b) <= maxPooledResultBytes {
		results.Put(b)
	}
}

// resultBytes is the payload capacity b holds, over every vector it keeps,
// including those past its current width.
func resultBytes(b *expr.Batch) int {
	n := 0
	for _, v := range b.Cols[:cap(b.Cols)] {
		n += cap(v.Nulls) + 8*cap(v.I) + 8*cap(v.F) + 16*cap(v.S) + 4*cap(v.Codes)
	}
	return n
}

// columnNames extracts the result schema's column names.
func columnNames(r *engine.Rows) []string {
	cols := r.Schema().Columns()
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	return names
}

// refreshGauges updates the engine-owned gauges the /metrics endpoint
// cannot touch itself: handlers never reach the engine, so the scheduler
// refreshes them after every batch.
func (c *Core) refreshGauges() {
	if pool := c.eng.Pool(); pool != nil {
		obsv.Default().Gauge(obsv.MetricPoolResident).Set(float64(pool.Used()))
	}
}
