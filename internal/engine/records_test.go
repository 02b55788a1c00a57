package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// recordShapes are scan→filter→project chains over lineitem whose stage
// lists differ in length and in projection width at the same stage: the
// shapes a recycled page record can carry from one statement to the next.
var recordShapes = []struct {
	name string
	plan func(e *Engine) plan.Node
}{
	{"1-column projection", func(e *Engine) plan.Node {
		s := e.MustTable(tpch.Lineitem).Schema
		one := expr.Const{V: expr.Float(1)}
		return plan.NewProject(plan.NewScan(e.MustTable(tpch.Lineitem), nil),
			[]expr.Expr{expr.Arith{Op: expr.Mul, L: s.Col("l_extendedprice"), R: expr.Arith{Op: expr.Sub, L: one, R: s.Col("l_discount")}}},
			[]string{"revenue"}, []expr.Kind{expr.KindFloat})
	}},
	{"3-column projection", func(e *Engine) plan.Node {
		s := e.MustTable(tpch.Lineitem).Schema
		return plan.NewProject(
			plan.NewScan(e.MustTable(tpch.Lineitem), expr.Cmp{Op: expr.LT, L: s.Col("l_quantity"), R: expr.Const{V: expr.Int(20)}}),
			[]expr.Expr{s.Col("l_orderkey"), expr.Arith{Op: expr.Mul, L: s.Col("l_quantity"), R: expr.Const{V: expr.Int(3)}}, s.Col("l_shipdate")},
			[]string{"l_orderkey", "scaled", "l_shipdate"}, []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindDate})
	}},
	{"filter only", func(e *Engine) plan.Node {
		s := e.MustTable(tpch.Lineitem).Schema
		return plan.NewFilter(plan.NewScan(e.MustTable(tpch.Lineitem), nil),
			expr.Cmp{Op: expr.GT, L: s.Col("l_discount"), R: expr.Const{V: expr.Float(0.05)}})
	}},
	{"project→filter→project", func(e *Engine) plan.Node {
		s := e.MustTable(tpch.Lineitem).Schema
		inner := plan.NewProject(plan.NewScan(e.MustTable(tpch.Lineitem), nil),
			[]expr.Expr{s.Col("l_suppkey"), expr.Arith{Op: expr.Add, L: s.Col("l_discount"), R: s.Col("l_discount")}},
			[]string{"l_suppkey", "levy"}, []expr.Kind{expr.KindInt, expr.KindFloat})
		kept := plan.NewFilter(inner, expr.Cmp{Op: expr.LT, L: expr.Col{Idx: 1}, R: expr.Const{V: expr.Float(0.1)}})
		return plan.NewProject(kept,
			[]expr.Expr{expr.Arith{Op: expr.Mul, L: expr.Col{Idx: 1}, R: expr.Const{V: expr.Float(100)}}},
			[]string{"levy_pct"}, []expr.Kind{expr.KindFloat})
	}},
}

// TestRecycledRecordsCrossFragmentShapes: page records, with the selection
// and projection vectors they keep, go back to one process-wide pool when
// their pump closes, so a pump may fill a record that last ran another
// chain: fewer stages, or another width at the same stage. Fragments of
// four chains at workers=4, interleaved one statement after another on two
// goroutines at once and all in one shared window, answer and charge
// exactly what each does alone on a fresh engine drawing fresh records.
func TestRecycledRecordsCrossFragmentShapes(t *testing.T) {
	const sf = 0.005
	prof := ProfileCommercial()
	prof.Workers = 4
	fresh := func() (*Engine, *system.Machine) {
		m := system.NewSUT()
		e := New(prof, m)
		tpch.NewGenerator(sf, 42).Load(e.Catalog(), tpch.Lineitem)
		e.WarmAll()
		return e, m
	}
	// emptyPools drops every pooled record: sync.Pool keeps what survives
	// one collection, so it takes two.
	emptyPools := func() { runtime.GC(); runtime.GC() }
	type outcome struct {
		rows   []expr.Row
		byKind [3]float64
	}
	// exec runs p as the first statement of a fresh engine, so its cycles
	// are the machine's totals: no difference of running sums to round.
	exec := func(e *Engine, m *system.Machine, p plan.Node) outcome {
		res, _ := e.Exec(p)
		return outcome{rows: res.Rows, byKind: m.CPUModel().Stats().CyclesByKind}
	}
	sameRows := func(what string, got, want []expr.Row) error {
		if len(got) != len(want) || len(want) == 0 {
			return fmt.Errorf("%s: %d rows, alone %d", what, len(got), len(want))
		}
		for r := range want {
			if len(got[r]) != len(want[r]) {
				return fmt.Errorf("%s: row %d has %d columns, alone %d", what, r, len(got[r]), len(want[r]))
			}
			for c := range want[r] {
				if got[r][c] != want[r][c] {
					return fmt.Errorf("%s: row %d column %d is %v, alone %v", what, r, c, got[r][c], want[r][c])
				}
			}
		}
		return nil
	}

	alone := make([]outcome, len(recordShapes))
	for i, sh := range recordShapes {
		emptyPools()
		e, m := fresh()
		alone[i] = exec(e, m, sh.plan(e))
	}

	// Each statement runs on an engine of its own, built beforehand, so
	// the records it draws are the ones statements before it returned,
	// on its goroutine or the other.
	order := []int{0, 1, 2, 3, 1, 0, 3, 2, 1, 3, 0, 2, 3, 1}
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
	windowEngine, windowMachine := fresh()
	var wg sync.WaitGroup
	errs := make([]error, sequences)
	for g := range engines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range order {
				i := order[(k+g)%len(order)]
				e, m := engines[g][k].e, engines[g][k].m
				got := exec(e, m, recordShapes[i].plan(e))
				if err := sameRows(recordShapes[i].name, got.rows, alone[i].rows); err != nil {
					errs[g] = err
					return
				}
				if got.byKind != alone[i].byKind {
					errs[g] = fmt.Errorf("%s: cycles by kind %v, alone %v", recordShapes[i].name, got.byKind, alone[i].byKind)
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

	// One shared window of every shape twice: pumps close at different
	// pulls, so their records pass to members still running. Its charges
	// match the same window run with an empty pool.
	window := func(e *Engine, m *system.Machine) ([][]expr.Row, [3]float64) {
		var stmts []Stmt
		for k := 0; k < 2; k++ {
			for _, sh := range recordShapes {
				stmts = append(stmts, Stmt{Plan: sh.plan(e)})
			}
		}
		rows := make([][]expr.Row, len(stmts))
		e.RunWindow(e.NewSharedSession(), stmts, func(i int, b *expr.Batch) {
			rows[i] = b.AppendRowsTo(rows[i])
		}, func(i int, _ *Rows, err error) {
			if err != nil {
				t.Fatalf("window member %d: %v", i, err)
			}
		})
		return rows, m.CPUModel().Stats().CyclesByKind
	}
	gotRows, gotCycles := window(windowEngine, windowMachine)
	emptyPools()
	_, wantCycles := window(fresh())
	for i, rows := range gotRows {
		sh := i % len(recordShapes)
		if err := sameRows("window: "+recordShapes[sh].name, rows, alone[sh].rows); err != nil {
			t.Fatal(err)
		}
	}
	if gotCycles != wantCycles {
		t.Fatalf("window cycles by kind %v, with an empty pool %v", gotCycles, wantCycles)
	}
}
