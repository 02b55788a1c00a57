package sql

// End-to-end coverage of the SQL front end through the vectorized batch
// pipeline: every statement here is planned by sql.Plan over the TPC-H
// catalog and executed twice — once via the SQL plan, once via a
// programmatically built plan — asserting row-for-row equality.

import (
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/plan"
	"ecodb/internal/tpch"
)

func tpchEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.ProfileMySQLMemory(), system.NewSUT())
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	return e
}

func mustPlan(t *testing.T, e *engine.Engine, query string) plan.Node {
	t.Helper()
	p, err := Plan(e.Catalog(), query)
	if err != nil {
		t.Fatalf("Plan(%q): %v", query, err)
	}
	return p
}

func assertRowsEqual(t *testing.T, got, want []expr.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row counts differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity differs: %v vs %v", i, got[i], want[i])
		}
		for c := range got[i] {
			if expr.Compare(got[i][c], want[i][c]) != 0 {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, got[i], want[i])
			}
		}
	}
}

func TestSQLJoinMatchesProgrammaticJoin(t *testing.T) {
	e := tpchEngine(t)

	sqlRes, _ := e.Exec(mustPlan(t, e,
		`SELECT * FROM nation JOIN supplier ON s_nationkey = n_nationkey`))

	nation := e.Catalog().MustTable(tpch.Nation)
	supplier := e.Catalog().MustTable(tpch.Supplier)
	prog := plan.NewHashJoin(
		plan.NewScan(nation, nil), plan.NewScan(supplier, nil),
		nation.Schema.MustIndex("n_nationkey"),
		supplier.Schema.MustIndex("s_nationkey"), nil)
	progRes, _ := e.Exec(prog)

	if len(sqlRes.Rows) == 0 {
		t.Fatal("join returned no rows")
	}
	assertRowsEqual(t, sqlRes.Rows, progRes.Rows)
}

func TestSQLGroupedAggregateOverJoin(t *testing.T) {
	e := tpchEngine(t)

	sqlRes, _ := e.Exec(mustPlan(t, e, `
		SELECT n_name, COUNT(*) AS suppliers
		FROM nation JOIN supplier ON s_nationkey = n_nationkey
		GROUP BY n_name
		ORDER BY n_name`))

	nation := e.Catalog().MustTable(tpch.Nation)
	supplier := e.Catalog().MustTable(tpch.Supplier)
	join := plan.NewHashJoin(
		plan.NewScan(nation, nil), plan.NewScan(supplier, nil),
		nation.Schema.MustIndex("n_nationkey"),
		supplier.Schema.MustIndex("s_nationkey"), nil)
	agg := plan.NewAgg(join,
		[]int{join.Schema().MustIndex("n_name")},
		[]plan.AggSpec{{Func: plan.Count, Name: "suppliers"}})
	prog := plan.NewSort(agg, plan.SortKey{Col: 0})
	progRes, _ := e.Exec(prog)

	if len(sqlRes.Rows) == 0 {
		t.Fatal("aggregate returned no rows")
	}
	assertRowsEqual(t, sqlRes.Rows, progRes.Rows)
}

func TestSQLStarSelectWithPredicates(t *testing.T) {
	e := tpchEngine(t)

	sqlRes, _ := e.Exec(mustPlan(t, e, `
		SELECT * FROM orders
		WHERE o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'`))

	orders := e.Catalog().MustTable(tpch.Orders)
	prog := plan.NewScan(orders, expr.Between{
		E:  orders.Schema.Col("o_orderdate"),
		Lo: expr.MustParseDate("1994-01-01"),
		Hi: expr.MustParseDate("1995-01-01"),
	})
	progRes, _ := e.Exec(prog)

	if len(sqlRes.Rows) == 0 {
		t.Fatal("date-range select returned no rows")
	}
	assertRowsEqual(t, sqlRes.Rows, progRes.Rows)
}

func TestSQLInListMatchesOrChain(t *testing.T) {
	e := tpchEngine(t)

	sqlRes, _ := e.Exec(mustPlan(t, e,
		`SELECT * FROM lineitem WHERE l_quantity IN (3, 7, 11)`))

	li := e.Catalog().MustTable(tpch.Lineitem)
	col := li.Schema.Col("l_quantity")
	var terms []expr.Expr
	for _, q := range []int64{3, 7, 11} {
		terms = append(terms, expr.Cmp{Op: expr.EQ, L: col, R: expr.Const{V: expr.Int(q)}})
	}
	progRes, _ := e.Exec(plan.NewScan(li, expr.Or{Terms: terms}))

	if len(sqlRes.Rows) == 0 {
		t.Fatal("IN-list select returned no rows")
	}
	assertRowsEqual(t, sqlRes.Rows, progRes.Rows)
}

func TestSQLPlanStreamsThroughQuery(t *testing.T) {
	// The streaming iterator over a SQL plan yields exactly the rows the
	// materialized wrapper returns, batch boundaries notwithstanding.
	e := tpchEngine(t)
	p := mustPlan(t, e, `
		SELECT l_quantity AS q, COUNT(*) AS n
		FROM lineitem
		GROUP BY l_quantity
		ORDER BY q`)

	res, _ := e.Exec(p)

	rows := e.Query(p)
	var streamed []expr.Row
	batches := 0
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		streamed = b.AppendRowsTo(streamed)
	}
	if batches == 0 {
		t.Fatal("stream produced no batches")
	}
	assertRowsEqual(t, streamed, res.Rows)
	if rows.Stats().RowsOut != int64(len(res.Rows)) {
		t.Fatalf("stream accounted %d rows, want %d", rows.Stats().RowsOut, len(res.Rows))
	}
}

func TestSQLLimitThroughBatchPipeline(t *testing.T) {
	e := tpchEngine(t)
	res, st := e.Exec(mustPlan(t, e,
		`SELECT * FROM lineitem WHERE l_quantity <= 10 ORDER BY l_orderkey LIMIT 12`))
	if len(res.Rows) != 12 || st.RowsOut != 12 {
		t.Fatalf("limit returned %d rows (stats %d), want 12", len(res.Rows), st.RowsOut)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].I < res.Rows[i-1][0].I {
			t.Fatal("limited result not ordered by l_orderkey")
		}
	}
}

// nullableEngine returns a memory engine with small hand-built tables
// containing NULLs, for end-to-end coverage of the executor NULL fixes.
func nullableEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.ProfileMySQLMemory(), system.NewSUT())

	people := catalog.NewTable("people", catalog.NewSchema(
		catalog.Column{Name: "dept", Kind: expr.KindString},
		catalog.Column{Name: "bonus", Kind: expr.KindInt},
	))
	people.Insert(expr.Row{expr.String("eng"), expr.Int(10)})
	people.Insert(expr.Row{expr.String("eng"), expr.Null()})
	people.Insert(expr.Row{expr.String("ops"), expr.Null()})
	e.Catalog().MustCreate(people)

	left := catalog.NewTable("lhs", catalog.NewSchema(
		catalog.Column{Name: "lk", Kind: expr.KindInt}))
	left.Insert(expr.Row{expr.Null()})
	left.Insert(expr.Row{expr.Int(1)})
	e.Catalog().MustCreate(left)

	right := catalog.NewTable("rhs", catalog.NewSchema(
		catalog.Column{Name: "rk", Kind: expr.KindInt}))
	right.Insert(expr.Row{expr.Null()})
	right.Insert(expr.Row{expr.Int(1)})
	e.Catalog().MustCreate(right)

	empty := catalog.NewTable("nobody", catalog.NewSchema(
		catalog.Column{Name: "x", Kind: expr.KindInt}))
	e.Catalog().MustCreate(empty)

	return e
}

func TestSQLCountColumnSkipsNulls(t *testing.T) {
	e := nullableEngine(t)
	res, _ := e.Exec(mustPlan(t, e, `
		SELECT dept, COUNT(bonus) AS with_bonus, COUNT(*) AS everyone
		FROM people GROUP BY dept ORDER BY dept`))
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(res.Rows))
	}
	eng, ops := res.Rows[0], res.Rows[1]
	if eng[1].I != 1 || eng[2].I != 2 {
		t.Fatalf("eng: COUNT(bonus)=%v COUNT(*)=%v, want 1 and 2", eng[1], eng[2])
	}
	if ops[1].I != 0 || ops[2].I != 1 {
		t.Fatalf("ops: COUNT(bonus)=%v COUNT(*)=%v, want 0 and 1", ops[1], ops[2])
	}
}

func TestSQLGlobalAggregateOverEmptyTable(t *testing.T) {
	e := nullableEngine(t)
	res, st := e.Exec(mustPlan(t, e,
		`SELECT COUNT(*) AS c, SUM(x) AS s, MIN(x) AS mn FROM nobody`))
	if len(res.Rows) != 1 || st.RowsOut != 1 {
		t.Fatalf("global aggregate over empty table returned %d rows, want 1", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I != 0 {
		t.Fatalf("COUNT(*) = %v, want 0", r[0])
	}
	if !r[1].IsNull() || !r[2].IsNull() {
		t.Fatalf("SUM/MIN over empty table = %v/%v, want NULL/NULL", r[1], r[2])
	}
}

func TestSQLJoinIgnoresNullKeys(t *testing.T) {
	e := nullableEngine(t)
	res, _ := e.Exec(mustPlan(t, e,
		`SELECT * FROM lhs JOIN rhs ON rk = lk`))
	if len(res.Rows) != 1 {
		t.Fatalf("NULL-key join returned %d rows, want 1", len(res.Rows))
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 1 {
		t.Fatalf("joined row = %v, want (1,1)", res.Rows[0])
	}
}

func TestSQLResultsWorkerInvariant(t *testing.T) {
	// The same SQL statement executed with and without morsel parallelism
	// returns identical rows and identical simulated statistics.
	query := `
		SELECT l_quantity AS q, COUNT(*) AS n
		FROM lineitem
		WHERE l_quantity <= 30
		GROUP BY l_quantity
		ORDER BY q`
	serialProf := engine.ProfileMySQLMemory()
	parallelProf := serialProf
	parallelProf.Workers = 4

	mk := func(prof engine.Profile) *engine.Engine {
		e := engine.New(prof, system.NewSUT())
		tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)
		return e
	}
	e1, e2 := mk(serialProf), mk(parallelProf)
	r1, st1 := e1.Exec(mustPlan(t, e1, query))
	r2, st2 := e2.Exec(mustPlan(t, e2, query))
	if len(r1.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
	assertRowsEqual(t, r2.Rows, r1.Rows)
	if st1 != st2 {
		t.Fatalf("stats diverge across worker counts: %+v vs %+v", st1, st2)
	}
}

// An ORDER BY name that two select items carry for different values is a
// bind error, not a silent sort by the first of them. The same column
// selected twice under one name, and a name one item carries, still order.
func TestOrderByRefusesAmbiguousName(t *testing.T) {
	e := engine.New(engine.ProfileMySQLMemory(), system.NewSUT())
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Nation)
	for _, q := range []string{
		`SELECT n_name AS x, n_regionkey AS x FROM nation ORDER BY x DESC LIMIT 3`,
		`SELECT n_regionkey, COUNT(*) AS n, SUM(n_nationkey) AS n FROM nation GROUP BY n_regionkey ORDER BY n`,
	} {
		if _, err := Plan(e.Catalog(), q); err == nil || !strings.Contains(err.Error(), "is ambiguous") {
			t.Errorf("Plan(%q): %v, want an ambiguous ORDER BY error", q, err)
		}
	}
	want := []string{"VIETNAM", "UNITED STATES", "UNITED KINGDOM"}
	for _, q := range []string{
		`SELECT n_name AS x, n_regionkey AS y FROM nation ORDER BY x DESC LIMIT 3`,
		`SELECT n_name AS x, n_name AS x FROM nation ORDER BY x DESC LIMIT 3`,
	} {
		res, _ := e.Exec(mustPlan(t, e, q))
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if row[0].S != want[i] {
				t.Errorf("%s: row %d is %v, want %s", q, i, row, want[i])
			}
		}
	}
}
