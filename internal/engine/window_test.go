package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// stmtSpec is one randomly drawn window member, independent of any engine
// so the twin systems can each bind it to their own catalog.
type stmtSpec struct {
	shape   int // 0 scan, 1 filter, 2 aggregation, 3 join, 4 rides unexecuted
	param   int
	pulls   int
	profile bool
}

func (s stmtSpec) plan(e *Engine) plan.Node {
	switch s.shape {
	case 0:
		return plan.NewScan(e.MustTable(tpch.Lineitem), nil)
	case 1:
		return tpch.QuantityBandQuery(e.Catalog(), int64(1+s.param%48), 2)
	case 2:
		return tpch.RevenueByQuantityQuery(e.Catalog(), int64(2+s.param%49))
	case 3:
		regions := []string{"ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"}
		return tpch.Q5(e.Catalog(), regions[s.param%len(regions)], 1993+s.param%5)
	}
	return nil
}

func randomWindow(rng *rand.Rand) []stmtSpec {
	specs := make([]stmtSpec, 1+rng.Intn(6))
	for i := range specs {
		specs[i] = stmtSpec{shape: rng.Intn(5), param: rng.Intn(1000), pulls: 1 + rng.Intn(4), profile: rng.Intn(2) == 0}
	}
	return specs
}

// stmtOutcome is what one window member leaves behind that the runner and
// the reference loop must agree on bit for bit.
type stmtOutcome struct {
	end      sim.Time // the clock at the pull that exhausted the stream
	stats    ExecStats
	rows     []expr.Row
	profiled bool
	joules   float64        // the profile's, when profiled
	plan     *obsv.PlanInfo // the optimizer's estimates, costed at the window's size
}

func (o *stmtOutcome) finish(end sim.Time, r *Rows) {
	o.end, o.stats = end, r.Stats()
	if p := r.Profile(); p != nil {
		o.profiled, o.joules, o.plan = true, p.Joules, p.Plan
	}
}

// runnerWindow runs the window through RunWindow. Its statements also carry
// a queue-entry instant, which the reference has no way to pass: the wait is
// observation, so nothing compared may move.
func runnerWindow(t *testing.T, e *Engine, m *system.Machine, sess *SharedSession, specs []stmtSpec) []stmtOutcome {
	t.Helper()
	stmts := make([]Stmt, len(specs))
	for i, s := range specs {
		stmts[i] = Stmt{Plan: s.plan(e), QueuedAt: m.Clock.Now(), Queued: true, Profile: s.profile, Pulls: s.pulls}
	}
	out := make([]stmtOutcome, len(specs))
	e.RunWindow(sess, stmts, func(i int, b *expr.Batch) {
		out[i].rows = b.AppendRowsTo(out[i].rows)
	}, func(i int, r *Rows, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out[i].finish(m.Clock.Now(), r)
	})
	return out
}

// referenceWindow is the loop RunWindow replaced, written out by hand over
// the public one-statement API only: set the concurrency hint, toggle the
// engine's profiling default around each Query, then pull round-robin.
func referenceWindow(t *testing.T, e *Engine, m *system.Machine, sess *SharedSession, specs []stmtSpec) []stmtOutcome {
	t.Helper()
	if sess != nil {
		sess.SetExpectedConcurrency(len(specs))
	}
	streams := make([]*Rows, len(specs))
	remaining := 0
	for i, s := range specs {
		p := s.plan(e)
		if p == nil {
			continue
		}
		prev := e.profiling
		e.SetProfiling(prev || s.profile)
		if sess != nil {
			streams[i] = sess.Query(p)
		} else {
			streams[i] = e.Query(p)
		}
		e.SetProfiling(prev)
		remaining++
	}
	out := make([]stmtOutcome, len(specs))
	for remaining > 0 {
		for i, r := range streams {
			if r == nil {
				continue
			}
			for k := 0; k < specs[i].pulls; k++ {
				b, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					out[i].finish(m.Clock.Now(), r)
					streams[i] = nil
					remaining--
					break
				}
				out[i].rows = b.AppendRowsTo(out[i].rows)
			}
		}
	}
	return out
}

func sameOutcomes(t *testing.T, label string, specs []stmtSpec, got, want []stmtOutcome) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.end != w.end || g.stats != w.stats || g.profiled != w.profiled || g.joules != w.joules || !reflect.DeepEqual(g.plan, w.plan) {
			t.Fatalf("%s statement %d %+v: runner {end %v, %+v, profiled %v, %v J, plan %+v}, reference {end %v, %+v, profiled %v, %v J, plan %+v}",
				label, i, specs[i], g.end, g.stats, g.profiled, g.joules, g.plan, w.end, w.stats, w.profiled, w.joules, w.plan)
		}
		if len(g.rows) != len(w.rows) {
			t.Fatalf("%s statement %d %+v: %d rows from the runner, %d from the reference", label, i, specs[i], len(g.rows), len(w.rows))
		}
		for ri := range w.rows {
			for c := range w.rows[ri] {
				if g.rows[ri][c] != w.rows[ri][c] {
					t.Fatalf("%s statement %d %+v: row %d col %d differs", label, i, specs[i], ri, c)
				}
			}
		}
	}
}

// TestRunWindowMatchesReferenceLoop: random windows through RunWindow on one
// system and through the hand-written loop on its twin leave the same end
// clock, trace joules, per-statement completion instants, statistics,
// profile joules and rows — private and shared, optimizer on and off,
// profiled per statement and by engine default, with a second window
// attaching to the session while a lone scan holds its pass mid-lap.
func TestRunWindowMatchesReferenceLoop(t *testing.T) {
	objectives := []opt.Objective{{}, opt.MinimizeLatency(), opt.MinimizeJoules()}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shared, profiling := rng.Intn(3) > 0, rng.Intn(2) == 0
		prof := ProfileCommercial()
		prof.Objective = objectives[rng.Intn(len(objectives))]
		label := fmt.Sprintf("seed %d (shared %v, profiling %v, objective %v)", seed, shared, profiling, prof.Objective)

		type side struct {
			e    *Engine
			m    *system.Machine
			sess *SharedSession
			run  func(*testing.T, *Engine, *system.Machine, *SharedSession, []stmtSpec) []stmtOutcome
		}
		sides := [2]side{{run: runnerWindow}, {run: referenceWindow}}
		for i := range sides {
			s := &sides[i]
			s.e, s.m = newEngine(t, prof, 0.002)
			s.e.WarmAll()
			s.e.SetProfiling(profiling)
			if shared {
				s.sess = s.e.NewSharedSession()
			}
		}

		first, second, lonePulls := randomWindow(rng), randomWindow(rng), 1+rng.Intn(5)
		var outcomes [2][2][]stmtOutcome
		var lone [2]ExecStats
		for i, s := range sides {
			outcomes[i][0] = s.run(t, s.e, s.m, s.sess, first)
			// A lone full scan, started outside any window and left mid-lap:
			// on a session the second window attaches late to its pass.
			scan := plan.NewScan(s.e.MustTable(tpch.Lineitem), nil)
			var r *Rows
			if shared {
				r = s.sess.Query(scan)
			} else {
				r = s.e.Query(scan)
			}
			for k := 0; k < lonePulls; k++ {
				if b, err := r.Next(); b == nil || err != nil {
					t.Fatalf("%s: lone scan pull %d: batch %v, err %v", label, k, b, err)
				}
			}
			outcomes[i][1] = s.run(t, s.e, s.m, s.sess, second)
			lone[i] = r.Stats()
		}

		sameOutcomes(t, label+" first window", first, outcomes[0][0], outcomes[1][0])
		sameOutcomes(t, label+" late-attached window", second, outcomes[0][1], outcomes[1][1])
		if lone[0] != lone[1] {
			t.Fatalf("%s: lone scan stats %+v with the runner, %+v with the reference", label, lone[0], lone[1])
		}
		a, b := sides[0].m, sides[1].m
		if a.Clock.Now() != b.Clock.Now() {
			t.Fatalf("%s: end clock %v with the runner, %v with the reference", label, a.Clock.Now(), b.Clock.Now())
		}
		ja, jb := a.CPU.Trace().Energy(0, a.Clock.Now()), b.CPU.Trace().Energy(0, b.Clock.Now())
		if ja != jb {
			t.Fatalf("%s: trace energy %v with the runner, %v with the reference", label, ja, jb)
		}
	}
}
