package engine

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

// Who runs a shared consumer's per-tuple work must not show: a statement
// co-admitted with a neighbour, or attached to a pass mid-lap, returns the
// same rows, completes at the same simulated instant, and leaves the same
// joules and pass counters at every worker count. The expected values in
// testdata/sharedpass.golden were recorded from the pass that ran every
// consumer's filter, aggregation, sort and probe on the scheduler
// goroutine; they are a fixed point, never to be regenerated.

// passQuery is one statement shape riding lineitem's pass (and orders',
// for the join).
type passQuery struct {
	name string
	plan func(e *Engine) plan.Node
}

func passQueries() []passQuery {
	col := func(e *Engine, table, name string) expr.Expr { return e.MustTable(table).Schema.Col(name) }
	cmp := func(op expr.CmpOp, l expr.Expr, v expr.Value) expr.Expr {
		return expr.Cmp{Op: op, L: l, R: expr.Const{V: v}}
	}
	li := func(e *Engine, name string) expr.Expr { return col(e, tpch.Lineitem, name) }
	return []passQuery{
		{"q6-sum", func(e *Engine) plan.Node {
			pred := expr.And{Terms: []expr.Expr{
				cmp(expr.GE, li(e, "l_shipdate"), expr.Date(8766)),
				cmp(expr.LT, li(e, "l_shipdate"), expr.Date(9131)),
				cmp(expr.GE, li(e, "l_discount"), expr.Float(0.05)),
				cmp(expr.LE, li(e, "l_discount"), expr.Float(0.07)),
				cmp(expr.LT, li(e, "l_quantity"), expr.Int(24)),
			}}
			return plan.NewAgg(plan.NewScan(e.MustTable(tpch.Lineitem), pred), nil, []plan.AggSpec{{
				Func: plan.Sum, Name: "revenue",
				Arg: expr.Arith{Op: expr.Mul, L: li(e, "l_extendedprice"), R: li(e, "l_discount")}}})
		}},
		{"grouped-sum-avg", func(e *Engine) plan.Node {
			t := e.MustTable(tpch.Lineitem)
			return plan.NewAgg(plan.NewScan(t, cmp(expr.LT, li(e, "l_quantity"), expr.Int(30))),
				[]int{t.Schema.MustIndex("l_linenumber")}, []plan.AggSpec{
					{Func: plan.Sum, Arg: li(e, "l_extendedprice"), Name: "price"},
					{Func: plan.Avg, Arg: li(e, "l_discount"), Name: "disc"},
					{Func: plan.Count, Name: "n"},
				})
		}},
		{"order-ties-limit", func(e *Engine) plan.Node {
			t := e.MustTable(tpch.Lineitem)
			return plan.NewLimit(plan.NewSort(plan.NewScan(t, cmp(expr.LE, li(e, "l_quantity"), expr.Int(3))),
				plan.SortKey{Col: t.Schema.MustIndex("l_quantity")}), 40)
		}},
		{"join-both-passes", func(e *Engine) plan.Node {
			ord, lt := e.MustTable(tpch.Orders), e.MustTable(tpch.Lineitem)
			return plan.NewHashJoin(
				plan.NewScan(ord, cmp(expr.LT, col(e, tpch.Orders, "o_orderdate"), expr.Date(8200))),
				plan.NewScan(lt, cmp(expr.LT, li(e, "l_quantity"), expr.Int(10))),
				ord.Schema.MustIndex("o_orderkey"), lt.Schema.MustIndex("l_orderkey"), nil)
		}},
		{"orderkey-band-sum", func(e *Engine) plan.Node {
			return plan.NewAgg(plan.NewScan(e.MustTable(tpch.Lineitem),
				expr.Between{E: li(e, "l_orderkey"), Lo: expr.Int(1000), Hi: expr.Int(1400)}),
				nil, []plan.AggSpec{
					{Func: plan.Count, Name: "n"},
					{Func: plan.Sum, Arg: li(e, "l_extendedprice"), Name: "price"},
				})
		}},
	}
}

// passNeighbour streams a clustered-key band of lineitem page by page: a
// co-admitted pair's second member, and the scan a late statement finds
// mid-lap. Under pruning it skips the pages outside its band, so pages
// neither member needs are skipped by the pass itself.
func passNeighbour(e *Engine) plan.Node {
	t := e.MustTable(tpch.Lineitem)
	return plan.NewScan(t, expr.Between{E: t.Schema.Col("l_orderkey"), Lo: expr.Int(2000), Hi: expr.Int(6000)})
}

// runPassCase runs q beside the neighbour on a fresh engine's shared
// session and renders everything the simulation decided: each statement's
// rows (digested), completion instant, duration and pool traffic, the
// window's joules, and every pass's counters. With late set, the
// neighbour is pulled a few batches before q attaches.
func runPassCase(t *testing.T, workers int, pruning, late bool, q passQuery) string {
	t.Helper()
	prof := ProfileCommercial()
	prof.Workers = workers
	prof.ZoneMapPruning = pruning
	e, m := newEngine(t, prof, 0.005)
	sess := e.NewSharedSession()

	var b strings.Builder
	digests := [2]*passDigest{newPassDigest(), newPassDigest()}
	done := func(i int, r *Rows, err error) {
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		fmt.Fprintf(&b, "  stmt%d rows=%d digest=%016x done=%s dur=%s hits=%d misses=%d\n",
			i, digests[i].rows, digests[i].h.Sum64(), fexactPass(m.Clock.Now().Seconds()),
			fexactPass(st.Duration.Seconds()), st.PoolHits, st.PoolMisses)
	}
	t0 := m.Clock.Now()
	if !late {
		e.RunWindow(sess, []Stmt{{Plan: q.plan(e)}, {Plan: passNeighbour(e)}},
			func(i int, _ *Rows, batch *expr.Batch) { digests[i].add(batch) }, done)
	} else {
		streams := [2]*Rows{1: sess.Query(passNeighbour(e))}
		for k := 0; k < 5; k++ {
			batch, err := streams[1].Next()
			if err != nil || batch == nil {
				t.Fatalf("neighbour pull %d: batch=%v err=%v", k, batch, err)
			}
			digests[1].add(batch)
		}
		streams[0] = sess.Query(q.plan(e))
		for live := 2; live > 0; {
			for i, r := range streams {
				if r == nil {
					continue
				}
				batch, err := r.Next()
				if batch != nil {
					digests[i].add(batch)
					continue
				}
				done(i, r, err)
				streams[i] = nil
				live--
			}
		}
	}
	end := m.Clock.Now()
	fmt.Fprintf(&b, "  window seconds=%s joules=%s\n",
		fexactPass(end.Sub(t0).Seconds()), fexactPass(float64(m.CPU.Trace().Energy(t0, end))))
	names := make([]string, 0, len(sess.coords))
	for name := range sess.coords {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := sess.coords[name]
		fmt.Fprintf(&b, "  pass %s %+v passes=%d pos=%d\n", name, c.Stats(), c.Passes(), c.Pos())
	}
	return b.String()
}

func fexactPass(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// passDigest hashes a statement's result rows in order, bit for bit.
type passDigest struct {
	h    hash.Hash64
	rows int
	buf  []byte
}

func newPassDigest() *passDigest { return &passDigest{h: fnv.New64a()} }

func (d *passDigest) add(b *expr.Batch) {
	for _, row := range b.AppendRowsTo(nil) {
		d.rows++
		for _, v := range row {
			d.buf = fmt.Appendf(d.buf[:0], "%d|%d|%x|%s;", v.Kind, v.I, math.Float64bits(v.F), v.S)
			d.h.Write(d.buf)
		}
	}
}

func TestSharedPassBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 windows")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sharedpass.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		var got strings.Builder
		for _, pruning := range []bool{false, true} {
			for _, late := range []bool{false, true} {
				for _, q := range passQueries() {
					fmt.Fprintf(&got, "%s pruning=%v late=%v\n", q.name, pruning, late)
					got.WriteString(runPassCase(t, w, pruning, late, q))
				}
			}
		}
		if got.String() != string(want) {
			t.Fatalf("workers=%d: shared passes diverged from the recorded single-goroutine pass\n--- got ---\n%s\n--- want ---\n%s",
				w, got.String(), want)
		}
	}
}
