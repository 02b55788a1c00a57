package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"ecodb/internal/energy"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/sql"
)

// leaseShapes are statements whose blocking operators lease their state
// (exec.Account): the served join_agg_sort shapes — Q5, a filtered join
// count, a Q1-shaped GROUP BY and two top-N statements — and a global SUM.
// Between them they lease join build sides and tables, global tables and
// run partials with and without GROUP BY, full and top-N sorted runs, and
// every operator's output batch, at widths and kinds that differ from
// shape to shape.
var leaseShapes = []struct{ name, sql string }{
	{"Q5", "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue" +
		" FROM region JOIN nation ON n_regionkey = r_regionkey" +
		" JOIN customer ON c_nationkey = n_nationkey" +
		" JOIN orders ON o_custkey = c_custkey" +
		" JOIN lineitem ON l_orderkey = o_orderkey" +
		" JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey" +
		" WHERE r_name = 'ASIA' AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'" +
		" GROUP BY n_name ORDER BY revenue DESC"},
	{"filtered join count", "SELECT COUNT(*) AS n FROM orders JOIN lineitem ON l_orderkey = o_orderkey" +
		" WHERE o_orderdate >= DATE '1993-03-01' AND o_orderdate < DATE '1994-03-01' AND l_quantity < 25"},
	{"Q1-shaped GROUP BY", "SELECT l_quantity, SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n" +
		" FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_quantity ORDER BY l_quantity"},
	{"top-20 orders", "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders" +
		" WHERE o_orderdate >= DATE '1992-04-01' ORDER BY o_totalprice DESC LIMIT 20"},
	{"top-100 lineitem", "SELECT l_orderkey, l_extendedprice FROM lineitem" +
		" WHERE l_quantity >= 3 ORDER BY l_extendedprice LIMIT 100"},
	{"global SUM", "SELECT SUM(l_extendedprice) AS s, COUNT(*) AS n FROM lineitem WHERE l_discount < 0.05"},
}

// TestLeasedStateCrossesStatementShapes: a statement's join builds, group
// tables, run partials, sorted runs and output batches go back to
// process-wide pools when it is released, so a statement may fill state
// another shape grew: other widths, other kinds, more or fewer groups and
// rows. Each shape at workers=4, interleaved one statement after another
// on two goroutines at once and all in one shared window, answers and
// costs — rows, simulated response and joules, bit for bit — exactly what
// it does alone on a fresh engine drawing from empty pools.
func TestLeasedStateCrossesStatementShapes(t *testing.T) {
	const sf = 0.005
	prof := ProfileCommercial()
	prof.Workers = 4
	fresh := func() (*Engine, *system.Machine) {
		e, m := newEngine(t, prof, sf)
		e.WarmAll()
		return e, m
	}
	// emptyPools drops every pooled lease and page record: sync.Pool keeps
	// what survives one collection, so it takes two.
	emptyPools := func() { runtime.GC(); runtime.GC() }
	type outcome struct {
		rows     []expr.Row
		response float64 // simulated seconds
		joules   energy.Joules
	}
	run := func(e *Engine, m *system.Machine, i int) outcome {
		p, err := sql.Plan(e.Catalog(), leaseShapes[i].sql)
		if err != nil {
			t.Fatalf("%s: %v", leaseShapes[i].name, err)
		}
		r := e.Query(p)
		var rows []expr.Row
		for {
			b, err := r.Next()
			if err != nil {
				t.Fatalf("%s: %v", leaseShapes[i].name, err)
			}
			if b == nil {
				break
			}
			rows = b.AppendRowsTo(rows)
		}
		st := r.Stats()
		return outcome{rows, st.Duration.Seconds(), m.CPUModel().Trace().Energy(r.Start(), r.Start().Add(st.Duration))}
	}
	same := func(what string, got, want outcome) error {
		if len(got.rows) != len(want.rows) || len(want.rows) == 0 {
			return fmt.Errorf("%s: %d rows, alone %d", what, len(got.rows), len(want.rows))
		}
		for r := range want.rows {
			for c := range want.rows[r] {
				if g, w := got.rows[r][c], want.rows[r][c]; g != w && !(g.Kind == expr.KindFloat && math.Float64bits(g.F) == math.Float64bits(w.F)) {
					return fmt.Errorf("%s: row %d column %d is %v, alone %v", what, r, c, g, w)
				}
			}
		}
		if got.response != want.response || got.joules != want.joules {
			return fmt.Errorf("%s: %v s and %v J, alone %v s and %v J", what, got.response, got.joules, want.response, want.joules)
		}
		return nil
	}

	alone := make([]outcome, len(leaseShapes))
	for i := range leaseShapes {
		emptyPools()
		e, m := fresh()
		alone[i] = run(e, m, i)
	}

	// Each statement runs first on an engine of its own, built beforehand,
	// so its simulated costs are comparable with its run alone while its
	// leases are the ones statements before it released, on its goroutine
	// or the other.
	order := []int{0, 1, 2, 3, 4, 5, 2, 0, 4, 1, 5, 3, 0}
	const sequences = 2
	type engineAt struct {
		e *Engine
		m *system.Machine
	}
	engines := make([][]engineAt, sequences)
	for g := range engines {
		for range order {
			e, m := fresh()
			engines[g] = append(engines[g], engineAt{e, m})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, sequences)
	for g := range engines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range order {
				i := order[(k+g)%len(order)]
				at := engines[g][k]
				if err := same(leaseShapes[i].name, run(at.e, at.m, i), alone[i]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("sequence %d: %v", g, err)
		}
	}

	// One shared window of every shape twice: members release at different
	// pulls, so their leases pass to members still running. Each member
	// answers what it does alone and costs what it costs in the same window
	// drawing from empty pools.
	window := func(e *Engine, m *system.Machine) []outcome {
		stmts := make([]Stmt, 2*len(leaseShapes))
		for k := range stmts {
			p, err := sql.Plan(e.Catalog(), leaseShapes[k%len(leaseShapes)].sql)
			if err != nil {
				t.Fatal(err)
			}
			stmts[k] = Stmt{Plan: p}
		}
		out := make([]outcome, len(stmts))
		e.RunWindow(e.NewSharedSession(), stmts, func(k int, b *expr.Batch) {
			out[k].rows = b.AppendRowsTo(out[k].rows)
		}, func(k int, r *Rows, err error) {
			if err != nil {
				t.Fatalf("window member %d: %v", k, err)
			}
			st := r.Stats()
			out[k].response = st.Duration.Seconds()
			out[k].joules = m.CPUModel().Trace().Energy(r.Start(), r.Start().Add(st.Duration))
		})
		return out
	}
	warm := window(fresh())
	emptyPools()
	cold := window(fresh())
	for k := range warm {
		name := "window: " + leaseShapes[k%len(leaseShapes)].name
		if err := same(name, outcome{rows: warm[k].rows}, outcome{rows: alone[k%len(leaseShapes)].rows}); err != nil {
			t.Fatal(err)
		}
		if err := same(name, warm[k], cold[k]); err != nil {
			t.Fatal(err)
		}
	}
}
