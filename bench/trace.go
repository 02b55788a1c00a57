package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"ecodb/internal/engine"
	"ecodb/internal/exec"
	"ecodb/internal/expr"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
	"ecodb/internal/server"
	"ecodb/internal/sql"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one statement execution form a tree through
// Parent (0 = root); a layer's self time is its span minus its children.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, stmt int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name})
	r.spans[id-1].StartNs = int64(time.Since(r.epoch))
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].EndNs = int64(time.Since(r.epoch)) }

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time: its duration minus its direct
// children's. Summed over a tree this telescopes to the root's duration.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.ns()
		if s.Parent != 0 {
			self[s.Parent] -= s.ns()
		}
	}
	return self
}

// The ladder: one statement timed at nested public entry points, each a
// separate execution one layer further in. A level's span is the child of
// the level outside it, so self times read as "what this layer adds".
const (
	spanRoundtrip = "client.roundtrip" // POST /query on the socket
	spanHandler   = "server.handler"   // Handler().ServeHTTP on a recorder
	spanParse     = "sql.parse"
	spanBind      = "sql.bind"
	spanDo        = "server.do"    // Core.Do
	spanQuery     = "engine.query" // Engine.Query (or the shared session's), rows materialized, Close
	spanDrain     = "exec.drain"   // compile + exec.Drain on a bare exec.Ctx
	spanCompile   = "exec.compile"
	spanPlan      = "opt.plan" // root of the optimizer side calls
	spanExtract   = "opt.extract"
	spanOptimize  = "opt.optimize"
	spanLower     = "opt.lower"
)

// ladderReps is how often the traced run visits each statement, wall
// budget permitting.
const ladderReps = 5

// execution is what one ladder visit measured beside its spans.
type execution struct {
	stmt        int
	roots       []int   // span IDs of this visit's tree roots
	untracedNs  int64   // the same round trip timed with no span recorded
	noProfileNs int64   // engine.query with profiling off; 0 for EXPLAIN
	simCycles   float64 // simulated cycles engine.query charged
	rowsOut     int64
	rowsIn      int64 // rows of the tables the plan scans
	extractTry  bool
	extractFail bool
}

// ladder runs the traced pass against a second scheduler over the
// measured run's system. The flush threshold is 1 there: one goroutine
// sends one statement at a time, and a threshold of 2 would time the
// 20 ms co-admission timer instead of the layers.
type ladder struct {
	s     *sut
	cl    *client
	rec   *recorder
	sess  *engine.SharedSession             // shared policy's engine.query entry point
	coord map[string]*scanshare.Coordinator // shared policy's exec.drain leaves
	execs []execution
}

// runLadder visits statements in list order, up to ladderReps times each,
// and stops starting new visits once budget is spent — but never before
// one visit of every statement shape.
func runLadder(w *workload, s *sut, stmts []string, want *oracle, budget time.Duration) (*ladder, []string) {
	l := &ladder{s: s, cl: newClient(s.url), rec: newRecorder(), coord: map[string]*scanshare.Coordinator{}}
	defer l.cl.close()
	if w.Policy != server.PolicyPrivate {
		l.sess = s.sys.Engine.NewSharedSession()
	}
	var problems []string
	deadline := time.Now().Add(budget)
	for rep := 0; rep < ladderReps; rep++ {
		for i, q := range stmts {
			if time.Now().After(deadline) && (rep > 0 || i >= w.Shapes) {
				return l, problems
			}
			if err := l.visit(i, q, want.Stmts[i], (rep+i)%2 == 0); err != nil && len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("traced run, statement %d %q: %v", i, q, err))
			}
		}
	}
	return l, problems
}

func (l *ladder) visit(i int, q string, want stmtAnswer, tracedFirst bool) error {
	ex := execution{stmt: i}
	defer func() { l.execs = append(l.execs, ex) }()
	eng := l.s.sys.Engine
	rec := l.rec

	// client.roundtrip, traced and untraced.
	var root int
	traced := func() error {
		root = rec.begin(spanRoundtrip, 0, i)
		status, body, err := l.cl.query(q)
		rec.end(root)
		if err != nil {
			return err
		}
		return checkAnswer(status, body, want)
	}
	untraced := func() error {
		t0 := time.Now()
		_, _, err := l.cl.query(q)
		ex.untracedNs = int64(time.Since(t0))
		return err
	}
	first, second := traced, untraced
	if !tracedFirst {
		first, second = untraced, traced
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	ex.roots = append(ex.roots, root)

	// server.handler.
	hreq := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(q))
	hrec := httptest.NewRecorder()
	hid := rec.begin(spanHandler, root, i)
	l.s.handler.ServeHTTP(hrec, hreq)
	rec.end(hid)
	if err := checkAnswer(hrec.Code, hrec.Body.Bytes(), want); err != nil {
		return fmt.Errorf("handler: %w", err)
	}

	// sql.parse, sql.bind: what the handler does before it submits.
	id := rec.begin(spanParse, hid, i)
	stmt, err := sql.Parse(q)
	rec.end(id)
	if err != nil {
		return err
	}
	req := server.Request{SQL: q, CollectRows: true}
	explain := stmt.Explain
	stmt.Explain = false
	if explain {
		req.Kind = server.StmtExplain
	} else {
		id = rec.begin(spanBind, hid, i)
		req.Plan, err = sql.Bind(eng.Catalog(), stmt)
		rec.end(id)
		if err != nil {
			return err
		}
	}

	// server.do.
	did := rec.begin(spanDo, hid, i)
	resp := l.s.core.Do(req)
	rec.end(did)
	if resp.Err != nil {
		return fmt.Errorf("Core.Do: %w", resp.Err)
	}
	ex.rowsOut = resp.RowsOut

	p := req.Plan
	if explain {
		// Nothing executes; the optimizer side calls below plan the
		// statement under the EXPLAIN.
		if p, err = sql.Bind(eng.Catalog(), stmt); err != nil {
			return err
		}
	} else {
		ex.rowsIn = scannedRows(p)
		qid := l.engineQuery(did, i, p, &ex)
		l.execDrain(qid, i, p)
	}
	l.optimizerCalls(i, p, &ex)
	return nil
}

// engineQuery times the engine's statement entry point with profiling on
// (as the server runs it) under a span, then again with profiling off.
func (l *ladder) engineQuery(parent, i int, p plan.Node, ex *execution) int {
	eng := l.s.sys.Engine
	cpu := l.s.sys.Machine.CPU
	run := func() {
		var rows *engine.Rows
		if l.sess != nil {
			rows = l.sess.Query(p)
		} else {
			rows = eng.Query(p)
		}
		var out []expr.Row
		for {
			b, err := rows.Next()
			if err != nil || b == nil {
				break
			}
			out = b.AppendRowsTo(out)
		}
		rows.Close()
	}
	eng.SetProfiling(true)
	before := cpu.Stats().Cycles
	qid := l.rec.begin(spanQuery, parent, i)
	run()
	l.rec.end(qid)
	ex.simCycles = cpu.Stats().Cycles - before
	eng.SetProfiling(false)
	t0 := time.Now()
	run()
	ex.noProfileNs = int64(time.Since(t0))
	return qid
}

// execDrain compiles and drains the plan on a bare execution context: the
// executor with no statement overhead, profile or result path around it.
func (l *ladder) execDrain(parent, i int, p plan.Node) {
	eng := l.s.sys.Engine
	prof := eng.Profile()
	ctx := &exec.Ctx{CPU: l.s.sys.Machine.CPU, Pool: eng.Pool(), Cost: prof.Cost, Amplify: prof.Amplification(), BatchSize: prof.BatchSize}
	xid := l.rec.begin(spanDrain, parent, i)
	cid := l.rec.begin(spanCompile, xid, i)
	var op exec.Operator
	if l.sess != nil {
		op = exec.CompileLeaf(p, l.sharedLeaf)
	} else {
		op = exec.CompileParallel(p, prof.Workers)
	}
	l.rec.end(cid)
	exec.Drain(ctx, op, nil) // operators return no errors today; the answer was checked above
	ctx.Flush()
	l.rec.end(xid)
}

func (l *ladder) sharedLeaf(s *plan.Scan) exec.Operator {
	c, ok := l.coord[s.Table.Name]
	if !ok {
		c = scanshare.NewCoordinator(s.Table.Heap, s.Table.Name, l.s.sys.Engine.Pool())
		l.coord[s.Table.Name] = c
	}
	return exec.NewSharedScan(c, s.Table, s.Filter)
}

// optimizerCalls times Extract → Optimize → Lower on the bound plan, as
// the engine would with an objective enabled.
func (l *ladder) optimizerCalls(i int, p plan.Node, ex *execution) {
	env, obj := l.s.sys.Engine.OptimizerEnv()
	if !obj.Enabled {
		obj = opt.MinimizeLatency()
	}
	rec := l.rec
	root := rec.begin(spanPlan, 0, i)
	defer func() { rec.end(root); ex.roots = append(ex.roots, root) }()
	ex.extractTry = true
	id := rec.begin(spanExtract, root, i)
	lg, base, err := opt.Extract(p)
	rec.end(id)
	if err != nil {
		ex.extractFail = true
		return
	}
	id = rec.begin(spanOptimize, root, i)
	ch, err := opt.Optimize(lg, base, env, obj)
	rec.end(id)
	if err != nil {
		return
	}
	id = rec.begin(spanLower, root, i)
	lg.Lower(ch.Phys) // timed for its cost; the lowered plan is not run
	rec.end(id)
}

// scannedRows is the number of rows in the tables a plan scans.
func scannedRows(n plan.Node) int64 {
	if s, ok := n.(*plan.Scan); ok {
		return s.Table.Heap.NumRows()
	}
	var rows int64
	for _, c := range n.Children() {
		rows += scannedRows(c)
	}
	return rows
}

// totals folds the executions into one number per key: for every
// statement the median over its visits, summed over statements. Keys are
// span names (duration, ns), "self:"+span name, and the execution fields.
func (l *ladder) totals() (sum map[string]float64, stmts int) {
	byID := make(map[int]span, len(l.rec.spans))
	children := map[int][]int{}
	for _, s := range l.rec.spans {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	self := selfTimes(l.rec.spans)
	perStmt := map[int]map[string][]float64{}
	for _, ex := range l.execs {
		if len(ex.roots) == 0 {
			continue // the visit failed before it measured anything
		}
		vals := map[string]float64{
			"untraced":  float64(ex.untracedNs),
			"noprofile": float64(ex.noProfileNs),
			"cycles":    ex.simCycles,
			"rows_out":  float64(ex.rowsOut),
			"rows_in":   float64(ex.rowsIn),
		}
		if ex.extractTry {
			vals["extract_try"] = 1
		}
		if ex.extractFail {
			vals["extract_fail"] = 1
		}
		var walk func(id int)
		walk = func(id int) {
			s := byID[id]
			vals[s.Name] = float64(s.ns())
			vals["self:"+s.Name] = float64(self[id])
			for _, c := range children[id] {
				walk(c)
			}
		}
		for _, r := range ex.roots {
			walk(r)
		}
		m := perStmt[ex.stmt]
		if m == nil {
			m = map[string][]float64{}
			perStmt[ex.stmt] = m
		}
		for k, v := range vals {
			m[k] = append(m[k], v)
		}
	}
	sum = map[string]float64{}
	for _, m := range perStmt {
		for k, v := range m {
			sum[k] += median(v)
		}
	}
	return sum, len(perStmt)
}

// metrics writes the ladder's per-layer metrics into out and returns
// each layer's self time as a share of the traced round trip, in percent:
// the README's "which layer dominates this workload" column.
func (l *ladder) metrics(out map[string]float64) (sharePct map[string]float64) {
	t, n := l.totals()
	if n == 0 {
		return nil
	}
	perStmt := func(key string, unit float64) float64 { return t[key] / float64(n) / unit }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	const us, ms = 1e3, 1e6
	out["sql.parse_us_per_stmt"] = perStmt(spanParse, us)
	out["sql.bind_us_per_stmt"] = perStmt(spanBind, us)
	out["opt.extract_us_per_stmt"] = perStmt(spanExtract, us)
	out["opt.optimize_us_per_stmt"] = perStmt(spanOptimize, us)
	out["opt.lower_us_per_stmt"] = perStmt(spanLower, us)
	out["opt.bypass_share"] = ratio(t["extract_fail"], t["extract_try"])
	out["exec.compile_us_per_stmt"] = perStmt(spanCompile, us)
	out["exec.drain_ms_per_stmt"] = perStmt(spanDrain, ms)
	out["exec.ns_per_row_in"] = ratio(t[spanDrain], t["rows_in"])
	out["engine.self_us_per_stmt"] = perStmt("self:"+spanQuery, us)
	out["hw.host_ns_per_sim_kcycle"] = ratio(t[spanQuery], t["cycles"]/1000)
	out["obsv.profile_overhead_pct"] = 100 * ratio(t[spanQuery]-t["noprofile"], t["noprofile"])
	out["server.admit_self_us_per_stmt"] = perStmt("self:"+spanDo, us)
	out["server.encode_self_us_per_stmt"] = perStmt("self:"+spanHandler, us)
	out["server.encode_ns_per_row"] = ratio(t["self:"+spanHandler], t["rows_out"])
	out["server.http_self_us_per_stmt"] = perStmt("self:"+spanRoundtrip, us)
	out["trace.overhead_pct"] = 100 * ratio(t[spanRoundtrip]-t["untraced"], t["untraced"])

	sharePct = map[string]float64{}
	for _, name := range []string{spanRoundtrip, spanHandler, spanParse, spanBind, spanDo, spanQuery, spanDrain, spanCompile} {
		sharePct[name] = 100 * ratio(t["self:"+name], t[spanRoundtrip])
	}
	return sharePct
}
