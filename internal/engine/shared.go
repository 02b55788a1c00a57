package engine

import (
	"ecodb/internal/catalog"
	"ecodb/internal/exec"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
)

// SharedSession is the shared-scan admission path: streaming queries
// started through it route every scan leaf in their plans through a
// per-table scanshare.Coordinator, so concurrent queries over the same
// table ride one circular heap pass — buffer-pool accesses, disk reads and
// page streaming are charged once per pass while each query pays its own
// per-tuple CPU. Plain Engine.Query and Exec are unchanged (private scans).
//
// The session follows the engine's cooperative single-threaded execution
// model: interleave pulls on the returned Rows iterators from one goroutine
// (round-robin, as RunWindow does). Each query's per-tuple work — filters,
// aggregation, sort, probe — runs on its own morsel pump's producers, up to
// Profile.Workers of them, while the pulls, the passes and every charge
// stay on that one goroutine. Queries admitted while a pass is mid-lap
// simply join at its current page and wrap, so results can arrive in rotated
// page order for late arrivals; queries admitted together (before any pulls)
// start at the same page and produce exactly the rows a private scan
// produces, in the same order.
type SharedSession struct {
	e      *Engine
	coords map[string]*scanshare.Coordinator
	// expected is the admission-time concurrency hint the optimizer costs
	// the shared access path with: RunWindow's window size, or
	// SetExpectedConcurrency.
	expected int
}

// NewSharedSession returns a shared-scan session over the engine's tables.
// Coordinators — and their pass positions — persist for the session's
// lifetime, so successive batches reuse the same elevator pass.
func (e *Engine) NewSharedSession() *SharedSession {
	return &SharedSession{e: e, coords: make(map[string]*scanshare.Coordinator)}
}

// Coordinator returns the session's shared-pass coordinator for a table,
// creating it on first use.
func (s *SharedSession) Coordinator(t *catalog.Table) *scanshare.Coordinator {
	c, ok := s.coords[t.Name]
	if !ok {
		c = scanshare.NewCoordinator(t.Heap, t.Name, s.e.pool)
		s.coords[t.Name] = c
	}
	return c
}

// Query starts a streaming query whose scan leaves are attached to the
// session's shared passes. Statement overhead, result-path accounting and
// the Rows contract are identical to Engine.Query; only the leaves differ.
// The scan attach happens here (at admission), so a batch of Query calls
// followed by interleaved pulls gives every member the same entry page.
// Caveat: blocking operators run their blocking phase at admission too —
// a hash join's Open drains the whole build side, advancing the shared
// pass before the rest of the batch is admitted (extra laps: results stay
// correct, only the amortization shrinks).
func (s *SharedSession) Query(p plan.Node) *Rows { return s.e.start(s, Stmt{Plan: p}) }

// sharedLeaf compiles one scan leaf as an attach to the session's shared
// pass over that table.
func (s *SharedSession) sharedLeaf(scan *plan.Scan) exec.Operator {
	return exec.NewSharedScan(s.Coordinator(scan.Table), scan.Table, scan.Filter)
}

// SetExpectedConcurrency tells the optimizer how many queries the caller
// intends to co-attach to this session's passes — the Q that pass-fired
// work amortizes over. Values below 2 mean 2: a shared session exists
// because at least two queries are expected to ride the pass. RunWindow sets
// it to the window's size, so only callers starting statements one by one
// with Query need it.
func (s *SharedSession) SetExpectedConcurrency(n int) {
	s.expected = n
}
