package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecodb/internal/obsv"
	"ecodb/internal/sim"
	"ecodb/internal/sql"
)

// This file is the live-serving edge: an HTTP front end over the admission
// scheduler. Connection handlers are ordinary concurrent goroutines — the
// server admits as many sessions as the OS gives it sockets — but they
// only parse SQL (the catalog is read-only after load) and rendezvous with
// the single scheduler goroutine, which owns every engine and clock touch.
//
//	POST /query    SQL text body; X-Tenant, X-Priority, X-Deadline-Ms headers
//	GET  /metrics  the engine metrics registry, exposition text format
//	GET  /healthz  "ok" until drain begins, 503 after
//	GET  /tenants  per-tenant admitted-query and joule totals, JSON

// Start launches the scheduler loop. Submissions rendezvous with the loop
// over an unbuffered channel, so an accepted Do is guaranteed to be
// answered — even by the drain path.
func (c *Core) Start() {
	go c.loop()
}

// Shutdown begins a graceful drain: new submissions are rejected with
// ErrDraining while everything already accepted is flushed, executed, and
// answered. It returns when the scheduler loop has exited or ctx expires.
func (c *Core) Shutdown(ctx context.Context) error {
	select {
	case <-c.stopc:
	default:
		close(c.stopc)
	}
	select {
	case <-c.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do submits one statement and blocks until its response. Safe to call
// from any number of goroutines; past MaxInflight it answers ErrOverloaded
// at once.
func (c *Core) Do(req Request) Response {
	p := &pending{req: req, id: req.ID, tenant: req.Tenant, done: make(chan Response, 1)}
	if !c.submit(p) {
		return p.resp
	}
	select {
	case c.handoff <- p:
		return <-p.done
	case <-c.stopped:
		c.inflight.Add(-1)
		return Response{ID: req.ID, Err: ErrDraining}
	}
}

// loop is the scheduler: the one goroutine that touches the engine during
// live serving. Its window clock is real time since it started; it flushes
// through step, sets its timer to the wake-up step returns, and on shutdown
// steps with no more arrivals until the queue is empty.
func (c *Core) loop() {
	defer close(c.stopped)
	start := time.Now()
	now := func() sim.Time { return sim.Time(time.Since(start).Seconds()) }
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for more := true; more; {
		select {
		case p := <-c.handoff:
			c.enqueue(p, now())
		case <-timer.C:
		case <-c.stopc:
			// Drain: everything accepted gets executed and answered. A
			// sender blocked on the unbuffered hand-off has not been
			// accepted and unblocks via the stopped channel in Do.
			more = false
		}
		for {
			batch, wake, waiting := c.step(now(), more)
			if batch == nil {
				if waiting {
					timer.Reset(time.Duration(wake.Sub(now()).Seconds() * float64(time.Second)))
				}
				break
			}
			c.answer(batch)
		}
	}
}

// answer replies to every statement of an executed batch. A live server's
// footprint must not grow with the number of statements it has served, so
// the CPU's power trace before now is dropped first — response joules and
// profile attribution were read as the window ran, and nothing asks about
// that draw again. Once a client has its answer the scheduler touches the
// machine no more until the next statement arrives. Scheduler goroutine only.
func (c *Core) answer(batch []*pending) {
	c.sys.Machine.CPU.Trace().DiscardBefore(c.clock.Now())
	for _, p := range batch {
		p.done <- p.resp
	}
}

// Server is the HTTP front end.
type Server struct {
	core     *Core
	srv      *http.Server
	draining atomic.Bool
	// drained is closed when the first Shutdown returns, with its result
	// in drainErr.
	drained   chan struct{}
	drainErr  error
	drainOnce sync.Once
}

// The served connection's timeouts. A client has readHeaderTimeout to
// send a request's headers, and a kept-alive connection closes after
// idleTimeout without a request, so a silent client cannot hold a
// connection and its goroutine forever. Neither bounds a statement: its
// body read and response write take as long as the statement does.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer wires a Core to an address. Call Core.Start (or let
// ListenAndServe do it) before serving.
func NewServer(c *Core, addr string) *Server {
	s := &Server{core: c, drained: make(chan struct{})}
	s.srv = &http.Server{Addr: addr, Handler: s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	return s
}

// Handler returns the route table, for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/tenants", s.handleTenants)
	return mux
}

// ListenAndServe starts the scheduler and serves until Shutdown. Once
// Shutdown begins it waits for the drain to finish — every accepted
// statement answered — and returns Shutdown's result, so a caller that
// exits when it returns answers everything it accepted.
func (s *Server) ListenAndServe() error {
	s.core.Start()
	if err := s.srv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	<-s.drained
	return s.drainErr
}

// Shutdown drains gracefully: the listener stops accepting, in-flight
// handlers finish (their statements are answered by the scheduler's drain),
// and the scheduler loop exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.srv.Shutdown(ctx)
	if coreErr := s.core.Shutdown(ctx); err == nil {
		err = coreErr
	}
	s.drainOnce.Do(func() {
		s.drainErr = err
		close(s.drained)
	})
	return err
}

// handleQuery answers POST /query. Everything but a wrong method is
// answered with writeResponse's JSON (wire.go): times are simulated
// seconds, joules simulated CPU energy.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SQL statement", http.StatusMethodNotAllowed)
		return
	}
	// A statement cut off at the cap is a different statement, so a body
	// over it is refused rather than parsed as far as it fits.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeResponse(w, status, &Response{Err: err})
		return
	}
	query := strings.TrimSpace(string(body))
	req, err := buildRequest(s.core, query, r.Header)
	if err != nil {
		writeResponse(w, http.StatusBadRequest, &Response{Err: err})
		return
	}
	resp := s.core.Do(req)
	status := http.StatusOK
	switch resp.Err {
	case nil:
	case ErrDraining:
		status = http.StatusServiceUnavailable
	case ErrOverloaded:
		status = http.StatusTooManyRequests
	default:
		status = http.StatusBadRequest
	}
	writeResponse(w, status, &resp)
	if resp.Result != nil {
		resp.rows.Release()
	}
}

// The two bounds on what a client may send: the statement's size, and the
// tenant label's — it becomes part of a metric name that lives as long as
// the process, so it is held to the exposition format's name characters.
const (
	maxBodyBytes   = 1 << 20
	maxTenantBytes = 64
)

// validTenant reports whether an X-Tenant value can name a metric: at most
// maxTenantBytes of [A-Za-z0-9_.-]. Empty is valid — it means "default".
func validTenant(s string) bool {
	if len(s) > maxTenantBytes {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9', b == '_', b == '.', b == '-':
		default:
			return false
		}
	}
	return true
}

// buildRequest parses one statement on the connection goroutine — binding
// only reads the catalog, which is immutable after load — so the scheduler
// never pays for malformed SQL.
func buildRequest(c *Core, query string, h http.Header) (Request, error) {
	tenant := h.Get("X-Tenant")
	if !validTenant(tenant) {
		return Request{}, fmt.Errorf("bad X-Tenant %q: want at most %d bytes of [A-Za-z0-9_.-]", tenant, maxTenantBytes)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Tenant:      tenant,
		SQL:         query,
		CollectRows: true,
	}
	if v := h.Get("X-Priority"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			return Request{}, fmt.Errorf("bad X-Priority %q: %w", v, err)
		}
		req.Priority = p
	}
	if v := h.Get("X-Deadline-Ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return Request{}, fmt.Errorf("bad X-Deadline-Ms %q", v)
		}
		req.Deadline = sim.Duration(ms / 1e3)
	}
	switch {
	case stmt.Explain && stmt.Analyze:
		req.Kind = StmtAnalyze
	case stmt.Explain:
		// The scheduler renders the plan from the raw SQL; nothing to bind.
		req.Kind = StmtExplain
		return req, nil
	}
	stmt.Explain, stmt.Analyze = false, false
	p, err := sql.Bind(c.eng.Catalog(), stmt)
	if err != nil {
		return Request{}, err
	}
	req.Plan = p
	return req, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The scheduler refreshed the engine's gauges after its last batch
	// (Core.refreshGauges), so handlers never touch the engine.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, obsv.Default().Snapshot().Text())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type tenant struct {
		Queries int64   `json:"queries"`
		Joules  float64 `json:"joules"`
	}
	snap := obsv.Default().Snapshot()
	out := map[string]*tenant{}
	get := func(name string) *tenant {
		t, ok := out[name]
		if !ok {
			t = &tenant{}
			out[name] = t
		}
		return t
	}
	for name, v := range snap.Counters {
		if t, ok := strings.CutPrefix(name, obsv.MetricServerTenantQueries); ok {
			get(t).Queries = v
		}
	}
	for name, v := range snap.Floats {
		if t, ok := strings.CutPrefix(name, obsv.MetricServerTenantJoules); ok {
			get(t).Joules = v
		}
	}
	writeJSON(w, out)
}

// writeJSON writes v as an indented JSON body. It marshals before writing,
// so a value JSON cannot carry is a 500, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
