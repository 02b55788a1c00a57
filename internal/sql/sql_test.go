package sql

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/tpch"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x >= 1.5 AND name = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "SELECT" || toks[0].kind != tokKeyword {
		t.Fatalf("first token = %+v", toks[0])
	}
	// The escaped quote collapses.
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatal("escaped string literal not lexed")
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Fatal("missing EOF token")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("SELECT -- comment here\n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Fatalf("tokens = %d, want 3", len(toks))
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := lex("SELECT @"); err == nil {
		t.Fatal("bad character should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT * FROM lineitem WHERE l_quantity = 7")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Items[0].Star {
		t.Fatal("expected star select")
	}
	if stmt.From.Name != "lineitem" {
		t.Fatalf("from = %q", stmt.From.Name)
	}
	bo, ok := stmt.Where.(BinOp)
	if !ok || bo.Op != "=" {
		t.Fatalf("where = %v", stmt.Where)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter than OR.
	root := stmt.Where.(BinOp)
	if root.Op != "OR" {
		t.Fatalf("root op = %s, want OR", root.Op)
	}
	if right := root.R.(BinOp); right.Op != "AND" {
		t.Fatalf("right op = %s, want AND", right.Op)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	add := stmt.Items[0].Expr.(BinOp)
	if add.Op != "+" {
		t.Fatalf("root = %s", add.Op)
	}
	if mul := add.R.(BinOp); mul.Op != "*" {
		t.Fatalf("rhs = %s, want *", mul.Op)
	}
}

func TestParseFullQ5(t *testing.T) {
	q := `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	      FROM region
	      JOIN nation ON n_regionkey = r_regionkey
	      JOIN customer ON c_nationkey = n_nationkey
	      JOIN orders ON o_custkey = c_custkey
	      JOIN lineitem ON l_orderkey = o_orderkey
	      JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
	      WHERE r_name = 'ASIA'
	        AND o_orderdate >= DATE '1994-01-01'
	        AND o_orderdate < DATE '1995-01-01'
	      GROUP BY n_name
	      ORDER BY revenue DESC`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Joins) != 5 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Name != "n_name" {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
	if !stmt.OrderBy[0].Desc {
		t.Fatal("order by should be DESC")
	}
	if stmt.Items[1].Agg != "SUM" || stmt.Items[1].Alias != "revenue" {
		t.Fatalf("agg item = %+v", stmt.Items[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP x",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t extra",
		"SELECT a FROM t JOIN u",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

// An expression parses with up to maxExprDepth NOTs and parentheses open
// at once and up to maxExprDepth operators on any path down its tree; one
// level more is a parse error. A 600 KB body of nested NOTs, which once
// took the process from 60 to 440 MB, is refused in milliseconds and a few
// megabytes.
func TestParseBoundsExpressionDepth(t *testing.T) {
	where := func(e string) string { return "SELECT * FROM t WHERE " + e }
	nots := func(n int) string { return where(strings.Repeat("NOT ", n) + "x = 1") }
	shapes := []struct {
		name string
		q    func(n int) string
		most int // the largest n that parses
	}{
		// n NOTs over a comparison: n+1 operators.
		{"NOT", nots, maxExprDepth - 1},
		// n parentheses open at once around one comparison.
		{"parentheses", func(n int) string {
			return where(strings.Repeat("(", n) + "x = 1" + strings.Repeat(")", n))
		}, maxExprDepth},
		// Two levels open per repetition, so one more repetition is two
		// levels past the bound.
		{"NOT (", func(n int) string {
			return where(strings.Repeat("NOT (", n) + "x = 1" + strings.Repeat(")", n))
		}, maxExprDepth / 2},
		// Left-deep chains: n ORs over comparisons are n+1 operators deep.
		{"OR", func(n int) string { return where("x = 1" + strings.Repeat(" OR x = 1", n)) }, maxExprDepth - 1},
		{"AND", func(n int) string { return where("x = 1" + strings.Repeat(" AND x = 1", n)) }, maxExprDepth - 1},
		{"+", func(n int) string { return "SELECT x" + strings.Repeat(" + 1", n) + " FROM t" }, maxExprDepth},
		{"*", func(n int) string { return "SELECT x" + strings.Repeat(" * 2", n) + " FROM t" }, maxExprDepth},
		// A chain over a parenthesized chain: the heights add up across the
		// parentheses although neither chain is long.
		{"chain over (chain)", func(n int) string {
			return "SELECT (x" + strings.Repeat(" - 1", maxExprDepth/2) + ")" + strings.Repeat(" / 2", n) + " FROM t"
		}, maxExprDepth / 2},
	}
	for _, s := range shapes {
		if _, err := Parse(s.q(s.most)); err != nil {
			t.Errorf("%s at %d: %v", s.name, s.most, err)
		}
		if _, err := Parse(s.q(s.most + 1)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s at %d: error %v, want the depth bound", s.name, s.most+1, err)
		}
	}

	body := nots(150_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := Parse(body)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("a %d KB body of NOTs: error %v, want the depth bound", len(body)>>10, err)
	}
	if alloc := (after.TotalAlloc - before.TotalAlloc) >> 20; took > time.Second || alloc > 64 {
		t.Errorf("refusing a %d KB body of NOTs took %v and %d MB, want milliseconds and a few MB", len(body)>>10, took, alloc)
	}
	t.Logf("a %d KB body of NOTs refused in %v, %d MB allocated", len(body)>>10, took, (after.TotalAlloc-before.TotalAlloc)>>20)
}

func TestParseBetweenAndIn(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.Where.(BinOp)
	if _, ok := and.L.(BetweenNode); !ok {
		t.Fatalf("left = %T, want BetweenNode", and.L)
	}
	in := and.R.(InNode)
	if len(in.List) != 3 {
		t.Fatalf("in list = %d", len(in.List))
	}
}

func TestParseLimitAndSemicolon(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t LIMIT 10;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
}

// End-to-end: the SQL front end produces the same Q5 answers as the
// programmatic plan builder.
func TestSQLQ5MatchesProgrammaticPlan(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)

	sqlPlan, err := Plan(e.Catalog(), `
		SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		FROM region
		JOIN nation ON n_regionkey = r_regionkey
		JOIN customer ON c_nationkey = n_nationkey
		JOIN orders ON o_custkey = c_custkey
		JOIN lineitem ON l_orderkey = o_orderkey
		JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		WHERE r_name = 'ASIA'
		  AND o_orderdate >= DATE '1994-01-01'
		  AND o_orderdate < DATE '1995-01-01'
		GROUP BY n_name
		ORDER BY revenue DESC`)
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, _ := e.Exec(sqlPlan)
	progRes, _ := e.Exec(tpch.Q5(e.Catalog(), "ASIA", 1994))

	if len(sqlRes.Rows) != len(progRes.Rows) {
		t.Fatalf("row counts differ: sql %d vs programmatic %d",
			len(sqlRes.Rows), len(progRes.Rows))
	}
	for i := range sqlRes.Rows {
		if sqlRes.Rows[i][0].S != progRes.Rows[i][0].S {
			t.Fatalf("row %d nation differs: %v vs %v", i, sqlRes.Rows[i], progRes.Rows[i])
		}
		if d := sqlRes.Rows[i][1].F - progRes.Rows[i][1].F; d > 1e-6 || d < -1e-6 {
			t.Fatalf("row %d revenue differs", i)
		}
	}
}

func TestSQLSelectionQuery(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)

	p, err := Plan(e.Catalog(), "SELECT * FROM lineitem WHERE l_quantity = 25")
	if err != nil {
		t.Fatal(err)
	}
	sqlRes, _ := e.Exec(p)
	progRes, _ := e.Exec(tpch.QuantityQuery(e.Catalog(), 25))
	if len(sqlRes.Rows) != len(progRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(sqlRes.Rows), len(progRes.Rows))
	}
}

func TestSQLProjectionAndAliases(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)

	p, err := Plan(e.Catalog(),
		"SELECT l_quantity AS q, l_extendedprice * 2 AS double_price FROM lineitem LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exec(p)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Schema.MustIndex("q") != 0 || res.Schema.MustIndex("double_price") != 1 {
		t.Fatal("aliases not applied")
	}
}

func TestSQLAggregatesWithoutGroupBy(t *testing.T) {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(), tpch.Lineitem)

	p, err := Plan(e.Catalog(), "SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exec(p)
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate returned %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	total := e.Catalog().MustTable(tpch.Lineitem).Heap.NumRows()
	if row[0].I != total {
		t.Fatalf("count = %d, want %d", row[0].I, total)
	}
	if row[1].AsFloat() != 1 || row[2].AsFloat() != 50 {
		t.Fatalf("min/max = %v/%v, want 1/50", row[1], row[2])
	}
}

func TestBindErrors(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Lineitem)

	bad := []string{
		"SELECT * FROM missing_table",
		"SELECT nope FROM lineitem",
		"SELECT l_quantity FROM lineitem GROUP BY l_orderkey",
		"SELECT * FROM lineitem JOIN lineitem ON 1 = 1", // duplicate + no key
		"SELECT * FROM lineitem ORDER BY l_quantity + 1",
	}
	for _, q := range bad {
		if _, err := Plan(cat, q); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

// Ill-typed comparisons die at bind time, naming both operands: the
// executor's Compare panics on a string against a number, and a served
// statement must never get that far.
func TestBindRejectsStringVersusNumericComparisons(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Lineitem, tpch.Customer)

	bad := map[string][]string{
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity = 'abc'":                  {"l_quantity", "'abc'"},
		"SELECT COUNT(*) FROM lineitem WHERE 'abc' < l_extendedprice":             {"l_extendedprice", "'abc'"},
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= '1994-01-01'":          {"l_shipdate", "'1994-01-01'"},
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 1 AND 'z'":        {"l_quantity", "'z'"},
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity IN (1, 'two', 3)":         {"l_quantity", "'two'"},
		"SELECT COUNT(*) FROM customer WHERE c_mktsegment = 7":                    {"c_mktsegment", "7"},
		"SELECT COUNT(*) FROM customer WHERE c_mktsegment IN ('AIR', 2)":          {"c_mktsegment", "2"},
		"SELECT COUNT(*) FROM customer WHERE c_mktsegment < c_nationkey":          {"c_mktsegment", "c_nationkey"},
		"SELECT COUNT(*) FROM lineitem WHERE NOT (l_quantity * 2 = 'x')":          {"l_quantity", "'x'"},
		"SELECT l_quantity = 'abc' AS b FROM lineitem":                            {"l_quantity", "'abc'"},
		"SELECT SUM(l_quantity) FROM lineitem WHERE l_discount <> 'none'":         {"l_discount", "'none'"},
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5 OR l_discount > 'hi'": {"l_discount", "'hi'"},
	}
	for q, mentions := range bad {
		_, err := Plan(cat, q)
		if err == nil {
			t.Errorf("Plan(%q) should fail", q)
			continue
		}
		if !strings.HasPrefix(err.Error(), "sql: cannot compare ") {
			t.Errorf("Plan(%q): %v, want a sql: cannot compare error", q, err)
		}
		for _, m := range mentions {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("Plan(%q): error %q does not name %s", q, err, m)
			}
		}
	}

	good := []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity = 3.5",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < 9000",
		"SELECT COUNT(*) FROM customer WHERE c_mktsegment IN ('AIR', 'RAIL') OR c_mktsegment > 'M'",
		"SELECT COUNT(*) FROM customer WHERE c_nationkey = NULL OR c_mktsegment <> NULL",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < l_extendedprice",
	}
	for _, q := range good {
		if _, err := Plan(cat, q); err != nil {
			t.Errorf("Plan(%q): %v", q, err)
		}
	}
}

// Arithmetic and SUM/AVG over a string read it as zero (Value.AsFloat), so
// the statement would answer, wrongly. They die at bind time, naming the
// operand and its kind; MIN, MAX and COUNT order or count any kind.
func TestBindRejectsNonNumericArithmeticAndAggregates(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Nation, tpch.Orders)

	bad := []struct {
		q, prefix string
		mentions  []string
	}{
		{"SELECT SUM(n_name) FROM nation", "sql: SUM needs a numeric argument", []string{"n_name", "string"}},
		{"SELECT AVG(n_name) AS a FROM nation", "sql: AVG needs a numeric argument", []string{"n_name", "string"}},
		{"SELECT n_regionkey, SUM(n_name) FROM nation GROUP BY n_regionkey", "sql: SUM needs a numeric argument", []string{"n_name", "string"}},
		{"SELECT SUM('x') FROM nation", "sql: SUM needs a numeric argument", []string{"'x'", "string"}},
		{"SELECT n_name * 2 FROM nation LIMIT 2", "sql: operator * needs numeric operands", []string{"n_name", "string"}},
		{"SELECT 1 + n_name FROM nation", "sql: operator + needs numeric operands", []string{"n_name", "string"}},
		{"SELECT n_nationkey / 'two' FROM nation", "sql: operator / needs numeric operands", []string{"'two'", "string"}},
		{"SELECT COUNT(*) FROM nation WHERE n_nationkey - n_name > 3", "sql: operator - needs numeric operands", []string{"n_name", "string"}},
		{"SELECT SUM(n_nationkey * n_name) FROM nation", "sql: operator * needs numeric operands", []string{"n_name", "string"}},
		{"SELECT SUM(o_totalprice + o_orderstatus) FROM orders", "sql: operator + needs numeric operands", []string{"o_orderstatus", "string"}},
	}
	for _, c := range bad {
		_, err := Plan(cat, c.q)
		if err == nil {
			t.Errorf("Plan(%q) should fail", c.q)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.prefix) {
			t.Errorf("Plan(%q): %v, want a %q error", c.q, err, c.prefix)
		}
		for _, m := range c.mentions {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("Plan(%q): error %q does not name %s", c.q, err, m)
			}
		}
	}

	good := []string{
		"SELECT MIN(n_name), MAX(n_name), COUNT(n_name) FROM nation",
		"SELECT MIN(o_orderdate), MAX(o_orderdate), COUNT(o_orderdate) FROM orders",
		"SELECT SUM(o_totalprice), AVG(o_custkey), SUM(o_orderkey * 2) FROM orders",
		"SELECT o_totalprice * (1 - 0.5) AS half, o_orderkey + NULL FROM orders",
		"SELECT SUM(o_orderdate) FROM orders",
	}
	for _, q := range good {
		if _, err := Plan(cat, q); err != nil {
			t.Errorf("Plan(%q): %v", q, err)
		}
	}
}

func TestWherePushdownIntoScan(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Lineitem)
	p, err := Plan(cat, "SELECT * FROM lineitem WHERE l_quantity = 3")
	if err != nil {
		t.Fatal(err)
	}
	// The single-table predicate lands in the scan, not a Filter node.
	if !strings.HasPrefix(p.Describe(), "Scan(lineitem, filter=") {
		t.Fatalf("plan root = %s, want filtered scan", p.Describe())
	}
}
