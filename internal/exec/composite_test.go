package exec

import (
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/plan"
	"ecodb/internal/scanshare"
)

// Composite predicates — what the SQL binder emits for every WHERE clause
// beyond a single comparison — evaluate as selection-vector cascades. The
// cascade must be invisible to the simulation: the same rows, Stats,
// simulated duration and joules on every scan leaf (heap fragments under an
// inline pump and under pools of 2 and 4, shared-pass consumers), and the answer
// per-row Eval gives.

// lineitemLike builds a multi-page table with lineitem's filter columns:
// quantity 1..50, an irregular float price, discount 0.00..0.10 and a ship
// date spread over seven years.
func lineitemLike(t *testing.T, n int) *catalog.Table {
	t.Helper()
	tb := catalog.NewTable("li", catalog.NewSchema(
		catalog.Column{Name: "qty", Kind: expr.KindInt},
		catalog.Column{Name: "price", Kind: expr.KindFloat},
		catalog.Column{Name: "disc", Kind: expr.KindFloat},
		catalog.Column{Name: "ship", Kind: expr.KindDate},
	))
	for i := 0; i < n; i++ {
		tb.Insert(expr.Row{
			expr.Int(int64(i*7%50 + 1)),
			expr.Float(900 + float64(i*37%9000)*1.37),
			expr.Float(float64(i*3%11) / 100),
			expr.Date(int64(8036 + i*13%2556)), // 1992-01-01 onwards
		})
	}
	return tb
}

// compositeShape is one statement shape: a plan and the predicate it scans
// with.
type compositeShape struct {
	plan plan.Node
	pred expr.Expr
}

// compositePlans returns the five scan_filter statement shapes as plans.
func compositePlans(tb *catalog.Table) map[string]compositeShape {
	col := tb.Schema.Col
	cmp := func(op expr.CmpOp, name string, v expr.Value) expr.Expr {
		return expr.Cmp{Op: op, L: col(name), R: expr.Const{V: v}}
	}
	and := func(terms ...expr.Expr) expr.Expr { return expr.And{Terms: terms} }
	or := func(terms ...expr.Expr) expr.Expr { return expr.Or{Terms: terms} }
	count := func(pred expr.Expr) plan.Node {
		return plan.NewAgg(plan.NewScan(tb, pred), nil, []plan.AggSpec{{Func: plan.Count, Name: "n"}})
	}

	// The binder nests a AND b AND c to the left and lowers BETWEEN to
	// And{GE, LE} and IN to an Or chain of equalities.
	q6 := and(and(and(
		cmp(expr.GE, "ship", expr.Date(8766)),
		cmp(expr.LT, "ship", expr.Date(9131))),
		and(cmp(expr.GE, "disc", expr.Float(0.02)), cmp(expr.LE, "disc", expr.Float(0.04)))),
		cmp(expr.LT, "qty", expr.Int(24)))
	and3 := and(and(
		cmp(expr.LT, "qty", expr.Int(45)),
		cmp(expr.GE, "price", expr.Float(1140.5))),
		cmp(expr.GT, "disc", expr.Float(0.01)))
	or3 := or(or(
		cmp(expr.EQ, "qty", expr.Int(17)),
		cmp(expr.GE, "disc", expr.Float(0.09))),
		cmp(expr.LT, "price", expr.Float(1250.5)))
	inAndDate := and(
		or(cmp(expr.EQ, "qty", expr.Int(3)), cmp(expr.EQ, "qty", expr.Int(29)), cmp(expr.EQ, "qty", expr.Int(41))),
		cmp(expr.GE, "ship", expr.Date(9300)))
	single := cmp(expr.EQ, "qty", expr.Int(12))

	return map[string]compositeShape{
		"q6-nested-and-sum": {plan.NewAgg(plan.NewScan(tb, q6), nil, []plan.AggSpec{{
			Func: plan.Sum, Arg: expr.Arith{Op: expr.Mul, L: col("price"), R: col("disc")}, Name: "revenue"}}), q6},
		"and3-count":        {count(and3), and3},
		"nested-or-count":   {count(or3), or3},
		"or-chain-and-date": {count(inAndDate), inAndDate},
		"single-cmp-count":  {count(single), single},
	}
}

// runShared drains n copies of p lowered over shared-scan leaves on one
// coordinator, pulled round-robin the way a co-admitted batch runs, on one
// simulated machine.
func runShared(t *testing.T, tb *catalog.Table, p plan.Node, n int) (perConsumer [][]expr.Row, out outcome) {
	t.Helper()
	ctx, clock := testCtx()
	coord := scanshare.NewCoordinator(tb.Heap, tb.Name, nil)
	ops := make([]Operator, n)
	for i := range ops {
		ops[i] = CompileLeaf(p, func(scan *plan.Scan) Operator {
			return NewSharedScan(coord, scan.Table, scan.Filter)
		})
		if err := ops[i].Open(ctx); err != nil {
			t.Fatal(err)
		}
	}
	perConsumer = make([][]expr.Row, n)
	for live := n; live > 0; {
		for i, op := range ops {
			if op == nil {
				continue
			}
			b, err := op.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				if err := op.Close(ctx); err != nil {
					t.Fatal(err)
				}
				ops[i] = nil
				live--
				continue
			}
			perConsumer[i] = b.AppendRowsTo(perConsumer[i])
		}
	}
	ctx.Flush()
	out.rows = perConsumer[0]
	out.now = clock.Now()
	out.stats = ctx.CPU.Stats()
	out.joules = ctx.CPU.Trace().Energy(0, clock.Now())
	return perConsumer, out
}

func TestCompositePredicatesBitIdenticalOnEveryScanPath(t *testing.T) {
	tb := lineitemLike(t, 6000)
	if tb.Heap.NumPages() < 8 {
		t.Fatalf("table spans %d pages; the parallel paths need more", tb.Heap.NumPages())
	}
	for name, shape := range compositePlans(tb) {
		serial := runWorkers(t, shape.plan, 1, false)

		// The answer, from the row interpreter over the heap in row order
		// (SUM adds floats in that order, so even its bits must agree).
		var matched int64
		var revenue float64
		for i := 0; i < tb.Heap.NumPages(); i++ {
			for _, r := range tb.Heap.Page(i).Rows() {
				if shape.pred.Eval(r, nil).Truthy() {
					matched++
					revenue += r[1].F * r[2].F
				}
			}
		}
		if matched == 0 || matched == int64(tb.Heap.NumRows()) {
			t.Fatalf("%s: predicate selects %d of %d rows — the test cannot bite", name, matched, tb.Heap.NumRows())
		}
		want := expr.Int(matched)
		if name == "q6-nested-and-sum" {
			want = expr.Float(revenue)
		}
		if len(serial.rows) != 1 || serial.rows[0][0] != want {
			t.Fatalf("%s: serial answer %v, row interpreter %v", name, serial.rows, want)
		}

		for _, w := range []int{0, 2, 4} {
			assertOutcomesIdentical(t, serial, runWorkers(t, shape.plan, w, false), name)
		}

		// One shared-scan consumer driven alone is a private scan (but for
		// the page hook, which shared leaves do not fire).
		_, alone := runShared(t, tb, shape.plan, 1)
		alone.hooks = serial.hooks
		assertOutcomesIdentical(t, serial, alone, name+" (shared scan, one consumer)")

		// Two consumers on one pass: the same answer each, per-consumer
		// work charged twice, the page stream once.
		rows, pair := runShared(t, tb, shape.plan, 2)
		for i := range rows {
			if len(rows[i]) != 1 || rows[i][0][0] != want {
				t.Fatalf("%s: shared consumer %d answered %v, want %v", name, i, rows[i], want)
			}
		}
		got, one := pair.stats.CyclesByKind, serial.stats.CyclesByKind
		if got[cpu.Compute] != 2*one[cpu.Compute] || got[cpu.MemStall] != 2*one[cpu.MemStall] || got[cpu.Stream] != one[cpu.Stream] {
			t.Fatalf("%s: two shared consumers charged compute/stall/stream %v/%v/%v, want 2×%v/2×%v/1×%v",
				name, got[cpu.Compute], got[cpu.MemStall], got[cpu.Stream], one[cpu.Compute], one[cpu.MemStall], one[cpu.Stream])
		}
		_, again := runShared(t, tb, shape.plan, 2)
		assertOutcomesIdentical(t, pair, again, name+" (shared scan, two consumers, rerun)")
	}
}
