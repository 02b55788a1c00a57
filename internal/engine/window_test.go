package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/opt"
	"ecodb/internal/plan"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// RunWindow is pinned by properties, not by a copy of the loop it
// replaced: the window's joules are partitioned among its statements'
// profiles, and a window of one is Query.

// stmtSpec is one randomly drawn window member, independent of any engine
// so twin systems can each bind it to their own catalog.
type stmtSpec struct {
	shape   int // 0 scan, 1 filter, 2 aggregation, 3 join, 4 rides unexecuted
	param   int
	pulls   int
	profile bool
}

func (s stmtSpec) plan(e *Engine) plan.Node {
	switch s.shape {
	case 0:
		p, err := plan.LowerScan(e.MustTable(tpch.Lineitem), nil)
		if err != nil {
			panic(err)
		}
		return p
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

var objectives = []opt.Objective{{}, opt.MinimizeLatency(), opt.MinimizeJoules()}

// loneScan starts a full lineitem scan outside any window, on sess when
// it is not nil, and pulls it pulls times, leaving it mid-lap: a window
// run next on sess attaches late to its pass.
func loneScan(t *testing.T, e *Engine, sess *SharedSession, pulls int) *Rows {
	t.Helper()
	scan := plan.NewScan(e.MustTable(tpch.Lineitem), nil)
	var r *Rows
	if sess != nil {
		r = sess.Query(scan)
	} else {
		r = e.Query(scan)
	}
	for k := 0; k < pulls; k++ {
		if b, err := r.Next(); b == nil || err != nil {
			t.Fatalf("lone scan pull %d: batch %v, err %v", k, b, err)
		}
	}
	return r
}

// TestRunWindowJoulesPartitionWindow: over random windows — private and
// shared, optimizer on and off, members that ride unexecuted, and a second
// window attaching to the session while a lone scan holds its pass
// mid-lap — each statement's profile sums to its metered joules, and the
// profiles together partition the trace energy the window spent, at 1e-9.
// Background I/O is off, so the trace holds only the window's charges.
func TestRunWindowJoulesPartitionWindow(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shared := rng.Intn(3) > 0
		prof := ProfileCommercial()
		prof.BGIOProbPerPage = 0
		prof.Objective = objectives[rng.Intn(len(objectives))]
		e, m := newEngine(t, prof, 0.002)
		e.WarmAll()
		var sess *SharedSession
		if shared {
			sess = e.NewSharedSession()
		}
		run := func(label string, specs []stmtSpec) {
			t.Helper()
			label = fmt.Sprintf("seed %d (shared %v, objective %v) %s", seed, shared, prof.Objective, label)
			stmts := make([]Stmt, len(specs))
			want := 0
			for i, s := range specs {
				stmts[i] = Stmt{Plan: s.plan(e), Profile: true, Pulls: s.pulls}
				if stmts[i].Plan != nil {
					want++
				}
			}
			t0 := m.Clock.Now()
			var sum float64
			done := 0
			e.RunWindow(sess, stmts, nil, func(i int, r *Rows, err error) {
				if err != nil {
					t.Fatal(err)
				}
				p := r.Profile()
				checkProfileSums(t, fmt.Sprintf("%s statement %d %+v", label, i, specs[i]), p)
				sum += p.Joules
				done++
			})
			if done != want {
				t.Fatalf("%s: %d statements finished, want %d", label, done, want)
			}
			if meter := float64(m.CPU.Trace().Energy(t0, m.Clock.Now())); !relClose(sum, meter, 1e-9) {
				t.Fatalf("%s: Σ profiles = %v J, the window's trace = %v J", label, sum, meter)
			}
		}
		first, second := randomWindow(rng), randomWindow(rng)
		run("first window", first)
		loneScan(t, e, sess, 1+rng.Intn(5))
		run("late-attached window", second)
	}
}

// TestRunWindowOfOneEqualsQuery: on twin systems, a window of one
// statement and Query of its plan, pulled to the end, return the same
// rows with the same statistics and completion instant, the same profile
// and the same trace joules — every plan shape, private and shared,
// optimizer on and off, also when the statement attaches to a session's
// pass that a lone scan holds mid-lap, whose statistics must agree too.
func TestRunWindowOfOneEqualsQuery(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := stmtSpec{shape: int(seed % 4), param: rng.Intn(1000), pulls: 1 + rng.Intn(4)}
		shared, lonePulls := rng.Intn(3) > 0, rng.Intn(4)
		prof := ProfileCommercial()
		prof.Objective = objectives[rng.Intn(len(objectives))]
		label := fmt.Sprintf("seed %d %+v (shared %v, lone pulls %d, objective %v)", seed, spec, shared, lonePulls, prof.Objective)

		type outcome struct {
			rows       []expr.Row
			stats      ExecStats
			start, end sim.Time
			joules     float64
			plan       *obsv.PlanInfo // the profile's optimizer estimates
			trace      float64
			lone       ExecStats
		}
		var out [2]outcome
		for side := range out {
			e, m := newEngine(t, prof, 0.002)
			e.WarmAll()
			e.SetProfiling(true)
			var sess *SharedSession
			if shared {
				sess = e.NewSharedSession()
			}
			var lone *Rows
			if lonePulls > 0 {
				lone = loneScan(t, e, sess, lonePulls)
			}
			o := &out[side]
			finish := func(r *Rows) {
				p := r.Profile()
				o.stats, o.start, o.end = r.Stats(), r.Start(), m.Clock.Now()
				o.joules, o.plan = p.Joules, p.Plan
			}
			if side == 0 {
				e.RunWindow(sess, []Stmt{{Plan: spec.plan(e), Pulls: spec.pulls}}, func(_ int, b *expr.Batch) {
					o.rows = b.AppendRowsTo(o.rows)
				}, func(_ int, r *Rows, err error) {
					if err != nil {
						t.Fatal(err)
					}
					finish(r)
				})
			} else {
				var r *Rows
				if shared {
					r = sess.Query(spec.plan(e))
				} else {
					r = e.Query(spec.plan(e))
				}
				for {
					b, err := r.Next()
					if err != nil {
						t.Fatal(err)
					}
					if b == nil {
						break
					}
					o.rows = b.AppendRowsTo(o.rows)
				}
				finish(r)
			}
			o.trace = float64(m.CPU.Trace().Energy(0, m.Clock.Now()))
			if lone != nil {
				o.lone = lone.Stats()
			}
		}

		w, q := out[0], out[1]
		if w.stats != q.stats || w.start != q.start || w.end != q.end || w.joules != q.joules || w.trace != q.trace || w.lone != q.lone {
			t.Fatalf("%s: window {%+v, [%v, %v], %v J, trace %v J, lone %+v}, Query {%+v, [%v, %v], %v J, trace %v J, lone %+v}",
				label, w.stats, w.start, w.end, w.joules, w.trace, w.lone, q.stats, q.start, q.end, q.joules, q.trace, q.lone)
		}
		if !reflect.DeepEqual(w.plan, q.plan) {
			t.Fatalf("%s: window plan estimates %+v, Query's %+v", label, w.plan, q.plan)
		}
		if !reflect.DeepEqual(w.rows, q.rows) {
			t.Fatalf("%s: the window returned %d rows, Query %d, or they differ", label, len(w.rows), len(q.rows))
		}
		if len(q.rows) == 0 {
			t.Fatalf("%s: no rows: the case compares nothing", label)
		}
	}
}
