package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// testProfile is the serving profile the tests run under: commercial
// physics with prepared-statement overhead, exactly as the ablation uses.
func testProfile() engine.Profile {
	prof := engine.ProfileCommercial()
	prof.WorkAmplification = 1
	prof.QueryOverheadCycles = 5e5
	return prof
}

// newTestSystem builds a small warm SUT and the band workload's plans.
// Loading and warming advance the simulated clock, so tests schedule
// arrivals relative to clock.Now(), never at absolute zero.
func newTestSystem(t *testing.T) (*core.System, []plan.Node) {
	t.Helper()
	sys := core.NewSystem(testProfile())
	tpch.NewGenerator(0.0005, 42).Load(sys.Engine.Catalog(), tpch.Lineitem)
	sys.Engine.WarmAll()
	return sys, tpch.QuantityBandWorkload(sys.Engine.Catalog(), 25)
}

func queryRequests(plans []plan.Node, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("q%02d", i), Plan: plans[i%len(plans)]}
	}
	return reqs
}

// wave schedules every request at the same simulated instant.
func wave(at sim.Time, reqs []Request) []Arrival {
	out := make([]Arrival, len(reqs))
	for i, r := range reqs {
		out[i] = Arrival{At: at, Req: r}
	}
	return out
}

func traceEnergy(sys *core.System) float64 {
	return float64(sys.Machine.CPU.Trace().Energy(0, sys.Machine.Clock.Now()))
}

// TestZeroCapacityQueue: MaxInflight 0 means zero capacity, so every
// statement bounces with ErrOverloaded and nothing executes.
func TestZeroCapacityQueue(t *testing.T) {
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.MaxInflight = 0
	c := NewCore(cfg, sys)
	before := obsv.Default().Counter(obsv.MetricServerRejected).Load()
	res := c.RunOpenLoop(wave(sys.Machine.Clock.Now(), queryRequests(plans, 3)))
	if res.Rejected != 3 || res.Completed != 0 {
		t.Fatalf("zero-capacity queue: rejected=%d completed=%d, want 3/0", res.Rejected, res.Completed)
	}
	if got := obsv.Default().Counter(obsv.MetricServerRejected).Load() - before; got != 3 {
		t.Fatalf("rejected counter advanced by %d, want 3", got)
	}
	if len(res.Batches) != 0 {
		t.Fatalf("zero-capacity queue admitted %d batches", len(res.Batches))
	}
	c.Start()
	if r := c.Do(Request{Plan: plans[0]}); r.Err != ErrOverloaded {
		t.Fatalf("live submission error = %v, want ErrOverloaded", r.Err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDeadlineExpiredAtAdmission: a statement whose budget is already
// blown when it reaches the engine still runs to completion — admission
// never kills statements — and is counted missed exactly once.
func TestDeadlineExpiredAtAdmission(t *testing.T) {
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.Policy = PolicyDeadline
	cfg.FlushThreshold = 1
	c := NewCore(cfg, sys)
	before := obsv.Default().Counter(obsv.MetricServerDeadlineMisses).Load()
	reqs := queryRequests(plans, 1)
	reqs[0].Deadline = 1e-12 // expires before any simulated work can finish
	res := c.RunOpenLoop(wave(sys.Machine.Clock.Now(), reqs))
	if res.Completed != 1 {
		t.Fatalf("expired statement did not complete: %+v", res)
	}
	if !res.Responses[0].DeadlineMiss || res.Misses != 1 {
		t.Fatalf("expired statement not counted missed: %+v", res.Responses[0])
	}
	if got := obsv.Default().Counter(obsv.MetricServerDeadlineMisses).Load() - before; got != 1 {
		t.Fatalf("deadline miss counter advanced by %d, want 1", got)
	}
	if res.Responses[0].RowsOut == 0 {
		t.Fatalf("expired statement produced no rows — it must still run")
	}
}

// TestDrainDuringInflight: shutdown while statements sit in the admission
// queue executes and answers every accepted statement; later submissions
// are refused with ErrDraining.
func TestDrainDuringInflight(t *testing.T) {
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.FlushThreshold = 100 // nothing flushes on its own...
	cfg.FlushWait = 10       // ...for 10 real seconds of window wait
	c := NewCore(cfg, sys)
	c.Start()

	const n = 8
	var wg sync.WaitGroup
	results := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(Request{ID: fmt.Sprintf("d%d", i), Plan: plans[i]})
		}(i)
	}
	// Wait until the scheduler has accepted all n into the queue.
	depth := obsv.Default().Gauge(obsv.MetricServerQueueDepth)
	for start := time.Now(); depth.Load() < n; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("queue never reached depth %d (at %v)", n, depth.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("accepted statement %d not completed on drain: %v", i, r.Err)
		}
		if r.RowsOut == 0 {
			t.Fatalf("accepted statement %d drained without executing", i)
		}
	}
	if r := c.Do(Request{Plan: plans[0]}); r.Err != ErrDraining {
		t.Fatalf("post-drain submission error = %v, want ErrDraining", r.Err)
	}
}

// TestBitIdentityWithRunShared: a single co-admitted server batch over the
// same plans, on a twin system, produces byte-identical simulated clocks,
// joules, and per-statement response times to the embedded
// workload.RunShared path. Admission metadata is policy and observation,
// never physics.
func TestBitIdentityWithRunShared(t *testing.T) {
	const n = 8

	sysA, plansA := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.Policy = PolicyShared
	cfg.Profiling = false
	c := NewCore(cfg, sysA)
	res := c.RunOpenLoop(wave(sysA.Machine.Clock.Now(), queryRequests(plansA, n)))
	if res.Completed != n || len(res.Batches) != 1 {
		t.Fatalf("server run: completed=%d batches=%d, want %d/1", res.Completed, len(res.Batches), n)
	}

	sysB, plansB := newTestSystem(t)
	out := workload.RunShared(sysB.Engine, sysB.Machine.Clock, workload.NewQueries("q", plansB[:n]))

	endA, endB := sysA.Machine.Clock.Now(), sysB.Machine.Clock.Now()
	if endA != endB {
		t.Fatalf("clocks diverge: server %v vs embedded %v", endA, endB)
	}
	if jA, jB := traceEnergy(sysA), traceEnergy(sysB); jA != jB {
		t.Fatalf("joules diverge: server %v vs embedded %v", jA, jB)
	}
	for i := range out.Queries {
		if res.Responses[i].Response != out.Queries[i].End {
			t.Fatalf("query %d response diverges: server %v vs embedded %v",
				i, res.Responses[i].Response, out.Queries[i].End)
		}
	}
}

// TestSharedWindowsAreCapped: a wave longer than maxWindow flushes in
// co-admission windows of at most maxWindow statements, and every statement
// is answered.
func TestSharedWindowsAreCapped(t *testing.T) {
	const n = maxWindow + 6
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.Profiling = false
	res := NewCore(cfg, sys).RunOpenLoop(wave(sys.Machine.Clock.Now(), queryRequests(plans, n)))
	if res.Completed != n {
		t.Fatalf("completed %d of %d", res.Completed, n)
	}
	if len(res.Batches) < 2 {
		t.Fatalf("%d statements in %d batch(es), want them split", n, len(res.Batches))
	}
	for i, b := range res.Batches {
		if len(b.IDs) > maxWindow {
			t.Fatalf("batch %d co-admits %d statements, over the cap of %d", i, len(b.IDs), maxWindow)
		}
	}
}

// TestPrivatePolicyIsWindowsOfOne: under the private policy every response
// field the scheduler measures equals what Engine.Query, a drain and the
// statement's own trace window give on a twin system, bit for bit — the
// private policy is the one window runner at size one with no session, not a
// second path. Profiled or not: private joules are the trace window either
// way.
func TestPrivatePolicyIsWindowsOfOne(t *testing.T) {
	const n = 6
	for _, profiling := range []bool{false, true} {
		sysA, plansA := newTestSystem(t)
		cfg := DefaultConfig()
		cfg.Policy = PolicyPrivate
		cfg.Profiling = profiling
		c := NewCore(cfg, sysA)
		// One wave: every statement after the first really waits in the queue.
		res := c.RunOpenLoop(wave(sysA.Machine.Clock.Now(), queryRequests(plansA, n)))
		if res.Completed != n {
			t.Fatalf("profiling %v: completed %d of %d", profiling, res.Completed, n)
		}

		sysB, plansB := newTestSystem(t)
		clock, trace := sysB.Machine.Clock, sysB.Machine.CPU.Trace()
		arrive := clock.Now()
		for i, p := range plansB[:n] {
			t0 := clock.Now()
			rows := sysB.Engine.Query(p)
			for {
				b, err := rows.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			t1 := clock.Now()
			st := rows.Stats()
			want := Response{
				RowsOut:   st.RowsOut,
				QueueWait: t0.Sub(arrive),
				Duration:  st.Duration,
				Response:  t1.Sub(arrive),
				Joules:    float64(trace.Energy(t0, t1)),
			}
			got := res.Responses[i]
			if got.RowsOut != want.RowsOut || got.QueueWait != want.QueueWait || got.Duration != want.Duration ||
				got.Response != want.Response || got.Joules != want.Joules {
				t.Fatalf("profiling %v, statement %d: server {rows %d, wait %v, duration %v, response %v, %v J}, embedded {rows %d, wait %v, duration %v, response %v, %v J}",
					profiling, i, got.RowsOut, got.QueueWait, got.Duration, got.Response, got.Joules,
					want.RowsOut, want.QueueWait, want.Duration, want.Response, want.Joules)
			}
		}
		if endA, endB := sysA.Machine.Clock.Now(), clock.Now(); endA != endB {
			t.Fatalf("profiling %v: clocks diverge: server %v vs embedded %v", profiling, endA, endB)
		}
	}
}

// TestSerialReplayBitIdentity: replaying a multi-batch open-loop run's
// batches — advance the clock to each batch instant, co-admit its
// IDs' plans through a persistent shared session, drain round-robin —
// reproduces the run's end clock and total joules exactly.
func TestSerialReplayBitIdentity(t *testing.T) {
	const n = 24

	sysA, plansA := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.Policy = PolicyShared
	cfg.FlushThreshold = 4
	cfg.FlushWait = 0.002
	cfg.Profiling = false
	c := NewCore(cfg, sysA)
	res := c.RunOpenLoop(OpenLoopArrivals(sysA.Machine.Clock.Now(), n, 2000, queryRequests(plansA, n)))
	if res.Completed != n {
		t.Fatalf("server run completed %d of %d", res.Completed, n)
	}
	adm := res.Batches
	if len(adm) < 2 {
		t.Fatalf("want a multi-batch run, got %d batches", len(adm))
	}

	// Twin system: replay the batches serially through the embedded path.
	sysB, plansB := newTestSystem(t)
	byID := map[string]plan.Node{}
	for _, r := range queryRequests(plansB, n) {
		byID[r.ID] = r.Plan
	}
	sess := sysB.Engine.NewSharedSession()
	for _, batch := range adm {
		sysB.Machine.Clock.AdvanceTo(batch.At)
		sess.SetExpectedConcurrency(len(batch.IDs))
		streams := make([]*engine.Rows, len(batch.IDs))
		for i, id := range batch.IDs {
			streams[i] = sess.Query(byID[id])
		}
		remaining := len(streams)
		for remaining > 0 {
			for i, r := range streams {
				if r == nil {
					continue
				}
				b, err := r.Next()
				if err != nil {
					t.Fatalf("replay error: %v", err)
				}
				if b == nil {
					streams[i] = nil
					remaining--
				}
			}
		}
	}
	endA, endB := sysA.Machine.Clock.Now(), sysB.Machine.Clock.Now()
	if endA != endB {
		t.Fatalf("replay clock diverges: %v vs %v", endA, endB)
	}
	if jA, jB := traceEnergy(sysA), traceEnergy(sysB); jA != jB {
		t.Fatalf("replay joules diverge: %v vs %v", jA, jB)
	}
}

// TestQueueWaitSpanInAnalyze: a statement that waited in the admission
// queue shows the wait as a QueueWait span in its EXPLAIN ANALYZE tree.
func TestQueueWaitSpanInAnalyze(t *testing.T) {
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.FlushThreshold = 2
	c := NewCore(cfg, sys)
	// q0 arrives first and waits for q1 to fill the co-admission window:
	// a real, deterministic 1 ms queue wait.
	start := sys.Machine.Clock.Now()
	arr := []Arrival{
		{At: start, Req: Request{ID: "q0", Plan: plans[0], Kind: StmtAnalyze}},
		{At: start.Add(0.001), Req: Request{ID: "q1", Plan: plans[1]}},
	}
	res := c.RunOpenLoop(arr)
	if res.Completed != 2 {
		t.Fatalf("completed %d of 2", res.Completed)
	}
	r0 := res.Responses[0]
	if r0.QueueWait <= 0 {
		t.Fatalf("q0 queue wait = %v, want > 0", r0.QueueWait)
	}
	if !strings.Contains(r0.Explain, "QueueWait") {
		t.Fatalf("EXPLAIN ANALYZE missing QueueWait span:\n%s", r0.Explain)
	}
}

// TestPriorityDrainsFirst: within one co-admitted batch, a higher-priority
// statement's stream is drained ahead of its best-effort peers, so it
// finishes strictly sooner.
func TestPriorityDrainsFirst(t *testing.T) {
	sys, plans := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.Profiling = false
	c := NewCore(cfg, sys)
	reqs := queryRequests(plans, 4)
	reqs[3].Priority = 3
	res := c.RunOpenLoop(wave(sys.Machine.Clock.Now(), reqs))
	if res.Completed != 4 {
		t.Fatalf("completed %d of 4", res.Completed)
	}
	prio := res.Responses[3].Response
	for i := 0; i < 3; i++ {
		if prio >= res.Responses[i].Response {
			t.Fatalf("priority statement (%v) did not finish before best-effort %d (%v)",
				prio, i, res.Responses[i].Response)
		}
	}
}

// The served http.Server bounds how long a connection may sit silent:
// before its request's headers, and between kept-alive requests.
func TestServerSetsConnectionTimeouts(t *testing.T) {
	sys, _ := newTestSystem(t)
	s := NewServer(NewCore(DefaultConfig(), sys), "unused")
	if got := s.srv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want %v", got, readHeaderTimeout)
	}
	if got := s.srv.IdleTimeout; got != idleTimeout || got <= 0 {
		t.Errorf("IdleTimeout %v, want %v", got, idleTimeout)
	}
}

// TestHTTPServerSmoke: concurrent HTTP sessions against the full stack —
// queries answered, metrics exposed from the registry, healthz flips to
// 503 on drain, and post-drain queries are refused.
func TestHTTPServerSmoke(t *testing.T) {
	sys, _ := newTestSystem(t)
	c := NewCore(DefaultConfig(), sys)
	s := NewServer(c, "unused")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c.Start()

	sessionsBefore := obsv.Default().Counter(obsv.MetricServerSessions).Load()
	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_quantity < %d", i%20+2)
			req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(q))
			req.Header.Set("X-Tenant", fmt.Sprintf("tenant%d", i%4))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hresp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), obsv.MetricServerSessions) {
		t.Fatalf("metrics missing %s:\n%s", obsv.MetricServerSessions, metrics)
	}
	if got := obsv.Default().Counter(obsv.MetricServerSessions).Load() - sessionsBefore; got != n {
		t.Fatalf("sessions counter advanced by %d, want %d", got, n)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The httptest listener is separate from the server's own, so the
	// handler still answers — and must report draining.
	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after drain: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", hresp.StatusCode)
	}
	qresp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("SELECT COUNT(*) FROM lineitem"))
	if err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after drain = %d, want 503", qresp.StatusCode)
	}
}

// TestListenAndServeReturnsAfterDrain: a statement sitting in the admission
// queue when Shutdown begins is answered before ListenAndServe returns.
// `ecodb serve` exits once it returns; closing every connection right then
// stands in for the exit, so an answer still pending would be cut off.
func TestListenAndServeReturnsAfterDrain(t *testing.T) {
	sys, _ := newTestSystem(t)
	cfg := DefaultConfig()
	cfg.FlushThreshold = 100 // nothing flushes on its own...
	cfg.FlushWait = 0.3      // ...for 0.3 real seconds of window wait
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	s := NewServer(NewCore(cfg, sys), addr)
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe() }()
	url := "http://" + addr
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("server never came up: %v", err)
		}
	}

	type answer struct {
		status int
		body   string
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(url+"/query", "text/plain", strings.NewReader("SELECT COUNT(*) FROM lineitem"))
		if err != nil {
			answered <- answer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		answered <- answer{resp.StatusCode, string(body), err}
	}()
	depth := obsv.Default().Gauge(obsv.MetricServerQueueDepth)
	for start := time.Now(); depth.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the statement never reached the admission queue")
		}
	}
	go s.Shutdown(context.Background())
	if err := <-served; err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	s.srv.Close()
	a := <-answered
	if a.err != nil || a.status != http.StatusOK || !strings.Contains(a.body, `"rows":[[3034]]`) {
		t.Fatalf("queued statement answered %d %q (%v), want 200 with its count 3034", a.status, a.body, a.err)
	}
}

// TestIllTypedStatementIsRejectedAndServingContinues: a comparison between
// a numeric column and a string literal used to reach expr.Compare and
// panic the scheduler goroutine, taking the process down; arithmetic or a
// SUM over a string column used to answer 200 with zeros, and an int key
// joined to a float key 200 with no matches. Each must be a 400 carrying
// the bind error, and the next statement on the same Core must be answered.
func TestIllTypedStatementIsRejectedAndServingContinues(t *testing.T) {
	sys, _ := newTestSystem(t)
	tpch.NewGenerator(0.0005, 42).Load(sys.Engine.Catalog(), tpch.Orders)
	c := NewCore(DefaultConfig(), sys)
	ts := httptest.NewServer(NewServer(c, "unused").Handler())
	defer ts.Close()
	c.Start()
	defer func() {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	post := func(q string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatalf("POST %q: %v", q, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %q: reading the response: %v", q, err)
		}
		return resp.StatusCode, string(body)
	}

	for q, wants := range map[string][]string{
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity = 'abc'":                 {"sql: cannot compare", "l_quantity", "'abc'"},
		"EXPLAIN SELECT COUNT(*) FROM lineitem WHERE l_quantity IN (1, 'abc')":   {"sql: cannot compare", "l_quantity", "'abc'"},
		"SELECT SUM(o_orderstatus) FROM orders":                                  {"sql: SUM needs a numeric argument", "o_orderstatus", "string"},
		"SELECT o_orderstatus * 2 FROM orders LIMIT 2":                           {"sql: operator * needs numeric operands", "o_orderstatus", "string"},
		"SELECT COUNT(*) FROM orders JOIN lineitem ON l_quantity = o_totalprice": {"sql: cannot join", "l_quantity", "int", "o_totalprice", "float"},
	} {
		status, body := post(q)
		if status != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400; body %s", q, status, body)
		}
		for _, want := range wants {
			if !strings.Contains(body, want) {
				t.Fatalf("%q: error body %s does not mention %s", q, body, want)
			}
		}
	}
	if status, body := post("SELECT COUNT(*) FROM lineitem WHERE l_quantity = 3"); status != http.StatusOK {
		t.Fatalf("statement after the rejected ones: status %d, body %s", status, body)
	}
}

// TestRepeatedOutputNamesAreServed: a select list or aggregate that repeats
// an output name used to panic in bind — over the connection for a query,
// and on the scheduler goroutine, taking the process down, for an EXPLAIN.
// Each is answered 200, the repeat qualified as name_k, and the next
// statement is answered too.
func TestRepeatedOutputNamesAreServed(t *testing.T) {
	sys, _ := newTestSystem(t)
	tpch.NewGenerator(0.0005, 42).Load(sys.Engine.Catalog(), tpch.Nation)
	c := NewCore(DefaultConfig(), sys)
	ts := httptest.NewServer(NewServer(c, "unused").Handler())
	defer ts.Close()
	c.Start()
	defer func() {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	post := func(q string) []string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatalf("POST %q: %v", q, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %q: reading the response: %v", q, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d, want 200; body %s", q, resp.StatusCode, body)
		}
		var r struct{ Columns []string }
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%q: %v in %s", q, err, body)
		}
		return r.Columns
	}

	post("EXPLAIN SELECT n_name, n_name FROM nation")
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{"SELECT n_name, n_name FROM nation", []string{"n_name", "n_name_2"}},
		{"SELECT n_name AS x, n_regionkey AS x FROM nation", []string{"x", "x_2"}},
		{"SELECT COUNT(*) AS n, SUM(n_regionkey) AS n FROM nation", []string{"n", "n_2"}},
		{"SELECT n_regionkey, SUM(n_nationkey) AS n_regionkey FROM nation GROUP BY n_regionkey", []string{"n_regionkey", "n_regionkey_2"}},
	} {
		if got := post(tc.q); strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%q: columns %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestServedExplainIsTimedAsPlanning: `ecodb serve` runs with the objective
// off, so EXPLAIN is the only statement it plans. engine_planning_seconds
// must count it, once per EXPLAIN.
func TestServedExplainIsTimedAsPlanning(t *testing.T) {
	sys, _ := newTestSystem(t)
	c := NewCore(DefaultConfig(), sys)
	ts := httptest.NewServer(NewServer(c, "unused").Handler())
	defer ts.Close()
	c.Start()
	defer func() {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	planned := func() int64 { return obsv.Default().Snapshot().Histograms[obsv.MetricPlanningSecs].Count }
	before := planned()
	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader("EXPLAIN SELECT COUNT(*) FROM lineitem WHERE l_quantity < 3"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "operators:") {
		t.Fatalf("EXPLAIN: status %d, body %s", resp.StatusCode, body)
	}
	if got := planned() - before; got != 1 {
		t.Errorf("one served EXPLAIN raised %s's count by %d, want 1", obsv.MetricPlanningSecs, got)
	}
}

// TestRequestBoundsAreEnforcedAtTheHandler: what a client sends is bounded
// before it reaches the parser or the metrics registry. A statement over the
// body cap used to be parsed as far as it fit — answering 200 with the count
// of a different statement — and an X-Tenant value used to be spliced raw
// into a metric name, so one with spaces broke the "name value" exposition
// format. Each is refused at the handler, and serving continues.
func TestRequestBoundsAreEnforcedAtTheHandler(t *testing.T) {
	sys, _ := newTestSystem(t)
	c := NewCore(DefaultConfig(), sys)
	ts := httptest.NewServer(NewServer(c, "unused").Handler())
	defer ts.Close()
	c.Start()
	defer func() {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	post := func(q, tenant string) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST (%d bytes, tenant %q): %v", len(q), tenant, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST (%d bytes, tenant %q): reading the response: %v", len(q), tenant, err)
		}
		return resp.StatusCode, string(body)
	}

	// Cut at the cap this is a valid statement matching every row; whole, it
	// matches none.
	const head = "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 100"
	oversized := head + strings.Repeat(" ", maxBodyBytes-len(head)) + " AND l_quantity < 0"
	if status, body := post(oversized, ""); status != http.StatusRequestEntityTooLarge || !strings.Contains(body, `"error"`) {
		t.Fatalf("statement of %d bytes: status %d, want 413 with a JSON error; body %s", len(oversized), status, body)
	}
	atCap := head + strings.Repeat(" ", maxBodyBytes-len(head))
	if status, body := post(atCap, ""); status != http.StatusOK {
		t.Fatalf("statement of exactly %d bytes: status %d, want 200; body %s", len(atCap), status, body)
	}

	const q = "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 3"
	for _, tenant := range []string{"a b 7", "caf\u00e9", "a/b", strings.Repeat("x", maxTenantBytes+1)} {
		if status, body := post(q, tenant); status != http.StatusBadRequest || !strings.Contains(body, "X-Tenant") {
			t.Fatalf("X-Tenant %q: status %d, want 400 naming the header; body %s", tenant, status, body)
		}
	}
	for _, tenant := range []string{"", "Team-7_eu.west", strings.Repeat("x", maxTenantBytes)} {
		if status, body := post(q, tenant); status != http.StatusOK {
			t.Fatalf("X-Tenant %q: status %d, want 200; body %s", tenant, status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), obsv.MetricServerTenantQueries+"Team-7_eu.west ") {
		t.Fatalf("metrics missing the accepted tenant's counter:\n%s", metrics)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(metrics), "\n"), "\n") {
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("metrics line %q is not \"name value\"", line)
		}
	}
}

// TestNonFiniteResultIsA500: JSON has no ±Inf or NaN. A result holding one
// used to answer 200 with an empty body — the status went out before the
// encoder failed, and its error was dropped. It must be a 500 whose error
// names the cell, and the next statement must be answered.
func TestNonFiniteResultIsA500(t *testing.T) {
	sys, _ := newTestSystem(t)
	c := NewCore(DefaultConfig(), sys)
	ts := httptest.NewServer(NewServer(c, "unused").Handler())
	defer ts.Close()
	c.Start()
	defer func() {
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	post := func(q string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			t.Fatalf("POST %.60q: %v", q, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %.60q: reading the response: %v", q, err)
		}
		return resp.StatusCode, body
	}

	huge := "1" + strings.Repeat("0", 300) + ".0" // 1e300: squared, +Inf
	for _, q := range []string{
		"SELECT l_extendedprice * " + huge + " * " + huge + " AS x FROM lineitem WHERE l_orderkey = 1",
		"SELECT SUM(l_extendedprice * " + huge + " * " + huge + ") AS x FROM lineitem WHERE l_orderkey = 1",
	} {
		status, body := post(q)
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%.60q: status %d, body %q is not JSON: %v", q, status, body, err)
		}
		if status != http.StatusInternalServerError || !strings.Contains(out.Error, "row 0") || !strings.Contains(out.Error, `"x"`) {
			t.Fatalf("%.60q: status %d, error %q; want 500 naming row 0, column \"x\"", q, status, out.Error)
		}
	}
	if status, body := post("SELECT l_extendedprice * 2.0 AS x FROM lineitem WHERE l_orderkey = 1"); status != http.StatusOK {
		t.Fatalf("statement after the 500s: status %d, body %s", status, body)
	}
}

// TestOpenLoopRowsMatchEngineQuery: the rows RunOpenLoop hands in-process
// callers — materialized from the columnar Result the scheduler gathered —
// equal Engine.Query drained through AppendRowsTo on a twin system, value
// for value: a wide scan, a projection of dictionary-encoded strings, and a
// top-N. RunOpenLoop drops the columnar copy; live Do keeps only that one.
func TestOpenLoopRowsMatchEngineQuery(t *testing.T) {
	queries := []string{
		"SELECT * FROM lineitem WHERE l_quantity BETWEEN 3 AND 4",
		"SELECT o_orderstatus, o_orderkey FROM orders WHERE o_orderdate < DATE '1994-01-01'",
		"SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem ORDER BY l_extendedprice DESC LIMIT 50",
	}
	twin := func() *core.System {
		sys, _ := newTestSystem(t)
		tpch.NewGenerator(0.0005, 42).Load(sys.Engine.Catalog(), tpch.Orders)
		if sys.Engine.MustTable(tpch.Orders).Heap.CompressStrings() == 0 {
			t.Fatal("orders has no dictionary-encoded column")
		}
		return sys
	}

	sysA := twin()
	cfg := DefaultConfig()
	cfg.Policy = PolicyPrivate
	c := NewCore(cfg, sysA)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		req, err := buildRequest(c, q, http.Header{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		reqs[i] = req
	}
	res := c.RunOpenLoop(wave(sysA.Machine.Clock.Now(), reqs))
	if res.Completed != len(queries) {
		t.Fatalf("completed %d of %d", res.Completed, len(queries))
	}
	for i, r := range res.Responses {
		if r.Result != nil {
			t.Fatalf("%q: RunOpenLoop kept the columnar result beside its rows", queries[i])
		}
	}

	// Live Do hands the handler the gathered batch itself, codes and all.
	live := NewCore(cfg, twin())
	req, err := buildRequest(live, queries[1], http.Header{})
	if err != nil {
		t.Fatal(err)
	}
	live.Start()
	resp := live.Do(req)
	if err := live.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Rows != nil || resp.Result == nil || resp.Result.Cols[0].Dict == nil {
		t.Fatal("live Do: want no Rows and a Result whose o_orderstatus column kept its dictionary codes")
	}
	if got := resp.Result.Rows(); len(got) != len(res.Responses[1].Rows) {
		t.Fatalf("live Do gathered %d rows, RunOpenLoop %d", len(got), len(res.Responses[1].Rows))
	}

	sysB := twin()
	for i, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sql.Bind(sysB.Engine.Catalog(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		rows := sysB.Engine.Query(p)
		var want []expr.Row
		for {
			b, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			want = b.AppendRowsTo(want)
		}
		got := res.Responses[i].Rows
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%q: %d rows through the scheduler, %d from the engine", q, len(got), len(want))
		}
		for r := range want {
			for col := range want[r] {
				if got[r][col] != want[r][col] {
					t.Fatalf("%q: row %d column %d: %v through the scheduler, %v from the engine", q, r, col, got[r][col], want[r][col])
				}
			}
		}
	}
}

// TestLiveServingKeepsPowerTraceBounded: the CPU power trace gains a few
// steps per page a statement scans; a serving process must not keep them
// once the statement is answered, or its footprint grows with every
// statement served.
func TestLiveServingKeepsPowerTraceBounded(t *testing.T) {
	sys, plans := newTestSystem(t)
	c := NewCore(DefaultConfig(), sys)
	c.Start()
	trace := sys.Machine.CPU.Trace()
	var joules []float64
	for i := 0; i < 30; i++ {
		resp := c.Do(Request{ID: fmt.Sprintf("q%d", i), Plan: plans[0]})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		joules = append(joules, resp.Joules)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if trace.Steps() > 2 {
		t.Fatalf("power trace holds %d steps after 30 answered statements, want only the current draw", trace.Steps())
	}
	// The same plan costs the same energy every time (to the rounding of
	// integrating at different absolute instants): no statement's window
	// lost steps to the trimming.
	for i, j := range joules {
		if j <= 0 || math.Abs(j-joules[0]) > 1e-9*joules[0] {
			t.Fatalf("statement %d reported %v J, statement 0 %v J", i, j, joules[0])
		}
	}
}

// TestProfilingIsBitNeutral: the same open-loop run with and without
// per-statement profiling lands on identical clocks and joules —
// observation never charges.
func TestProfilingIsBitNeutral(t *testing.T) {
	run := func(profiling bool) (sim.Time, float64) {
		sys, plans := newTestSystem(t)
		cfg := DefaultConfig()
		cfg.FlushThreshold = 4
		cfg.Profiling = profiling
		c := NewCore(cfg, sys)
		res := c.RunOpenLoop(OpenLoopArrivals(sys.Machine.Clock.Now(), 12, 3000, queryRequests(plans, 12)))
		if res.Completed != 12 {
			t.Fatalf("completed %d of 12", res.Completed)
		}
		return sys.Machine.Clock.Now(), traceEnergy(sys)
	}
	endOn, jOn := run(true)
	endOff, jOff := run(false)
	if endOn != endOff || jOn != jOff {
		t.Fatalf("profiling changed physics: end %v vs %v, joules %v vs %v", endOn, endOff, jOn, jOff)
	}
}

// TestPooledResultsCarryNothingBetweenAnswers: answers are gathered into
// batches drawn from a process-wide pool, and each goes back once its body
// is written, so one answer's batch — its width, kinds, NULL bitmaps,
// dictionaries and payload capacity — is what the next answer is gathered
// into. Four clients send one server a sequence that alternates wide
// answers of ints, floats and dates, a two-column arithmetic projection,
// dictionary-encoded string columns and NULL-bearing answers; every body's
// result — columns, rows and row count — is byte-identical to the one the
// same statement gets alone from a fresh server. (Queue waits, durations
// and joules depend on the neighbours a statement waited behind; the id on
// how many came before it.)
func TestPooledResultsCarryNothingBetweenAnswers(t *testing.T) {
	queries := []string{
		"SELECT * FROM lineitem WHERE l_quantity BETWEEN 3 AND 4",
		"SELECT l_extendedprice * (1 - l_discount) AS revenue, l_quantity * 3 AS scaled FROM lineitem WHERE l_quantity BETWEEN 12 AND 22",
		"SELECT * FROM orders WHERE o_orderdate >= DATE '1997-09-05'",
		"SELECT l_orderkey, l_extendedprice / (l_discount - 0.05) AS spread FROM lineitem WHERE l_quantity < 6",
		"SELECT o_orderstatus, o_orderkey FROM orders WHERE o_orderdate < DATE '1993-01-01'",
	}
	// serve starts a private-policy server over lineitem and orders, orders
	// with dictionary-encoded strings.
	serve := func() (*httptest.Server, *Core) {
		sys, _ := newTestSystem(t)
		tpch.NewGenerator(0.0005, 42).Load(sys.Engine.Catalog(), tpch.Orders)
		if sys.Engine.MustTable(tpch.Orders).Heap.CompressStrings() == 0 {
			t.Fatal("orders has no dictionary-encoded column")
		}
		cfg := DefaultConfig()
		cfg.Policy = PolicyPrivate
		c := NewCore(cfg, sys)
		c.Start()
		return httptest.NewServer(NewServer(c, "unused").Handler()), c
	}
	stop := func(ts *httptest.Server, c *Core) {
		ts.Close()
		if err := c.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	// result cuts a body down to what the result batch wrote.
	result := func(body []byte) (string, error) {
		s := string(body)
		from, to := strings.Index(s, `"columns":`), strings.Index(s, `,"queue_wait_seconds"`)
		if from < 0 || to < from {
			return "", fmt.Errorf("body has no result: %.200s", s)
		}
		return s[from:to], nil
	}
	post := func(url, q string) (string, error) {
		resp, err := http.Post(url+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		return result(body)
	}

	want := make([]string, len(queries))
	for i, q := range queries {
		ts, c := serve()
		got, err := post(ts.URL, q)
		stop(ts, c)
		if err != nil {
			t.Fatalf("%q on a fresh server: %v", q, err)
		}
		want[i] = got
	}
	if !strings.Contains(want[3], "null") || !strings.Contains(want[3], `"spread"`) {
		t.Fatalf("%q: want an answer with NULLs, got %.300s", queries[3], want[3])
	}

	ts, c := serve()
	defer stop(ts, c)
	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := 0; k < rounds*len(queries); k++ {
				i := (cl + k) % len(queries) // each client starts at another shape
				got, err := post(ts.URL, queries[i])
				if err != nil {
					errs <- fmt.Errorf("client %d, %q: %v", cl, queries[i], err)
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("client %d, %q: result differs from a fresh server's:\n got %.300s\nwant %.300s", cl, queries[i], got, want[i])
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOversizeResultIsNotPooled: a result batch holding more payload than
// maxPooledResultBytes goes to the collector, not back to the pool, so one
// huge answer cannot pin its vectors for the process's lifetime.
func TestOversizeResultIsNotPooled(t *testing.T) {
	big := newResult(1)
	xs := make([]int64, maxPooledResultBytes/8+1)
	src := expr.IntVec(expr.KindInt, xs)
	big.Cols[0].AppendFrom(&src, nil)
	big.N = len(xs)
	if resultBytes(big) <= maxPooledResultBytes {
		t.Fatalf("the batch holds %d bytes, not past the %d-byte bound", resultBytes(big), maxPooledResultBytes)
	}
	releaseResult(big)
	for i := 0; i < 100; i++ {
		if b := newResult(1); b == big {
			t.Fatal("an oversize result batch came back out of the pool")
		}
	}
}
