package sql

// Regression coverage for multi-condition ON clauses. The old binder
// resolved residual conjuncts against the concatenated join schema, where
// duplicate column names had already been renamed (v -> v_2): qualified
// references like tb.v failed to bind, and ambiguous unqualified
// references silently resolved to the left table.

import (
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/tpch"
)

func dupNameEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.ProfileMySQLMemory(), system.NewSUT())
	ta := catalog.NewTable("ta", catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	tb := catalog.NewTable("tb", catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "v", Kind: expr.KindInt},
	))
	for i := 0; i < 100; i++ {
		ta.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i % 10))})
		tb.Insert(expr.Row{expr.Int(int64(i)), expr.Int(int64(i % 7))})
	}
	e.Catalog().MustCreate(ta)
	e.Catalog().MustCreate(tb)
	return e
}

func TestBindJoinMultiConditionQualifiedResidual(t *testing.T) {
	e := dupNameEngine(t)

	// The second conjunct references both tables' duplicate-named column
	// by qualifier; it must become a residual on the join, not an error.
	p, err := Plan(e.Catalog(), `SELECT * FROM ta JOIN tb ON ta.k = tb.k AND ta.v < tb.v`)
	if err != nil {
		t.Fatalf("multi-condition ON with qualified duplicate names: %v", err)
	}
	res, _ := e.Exec(p)
	rows := res.Rows

	// Ground truth: k matches pairwise, so count i in [0,100) with
	// i%10 < i%7.
	want := 0
	for i := 0; i < 100; i++ {
		if i%10 < i%7 {
			want++
		}
	}
	if want == 0 || want == 100 {
		t.Fatal("degenerate fixture: residual filters nothing")
	}
	if len(rows) != want {
		t.Fatalf("residual not applied: got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !(r[1].I < r[3].I) {
			t.Fatalf("row violates residual ta.v < tb.v: %v", r)
		}
	}
}

func TestBindJoinAmbiguousResidualRejected(t *testing.T) {
	e := dupNameEngine(t)

	// Unqualified v exists in both tables; the old binder silently took
	// the left one.
	_, err := Plan(e.Catalog(), `SELECT * FROM ta JOIN tb ON ta.k = tb.k AND v < 3`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous residual should be rejected, got %v", err)
	}
}

func TestBindJoinOnScopeLeftToRight(t *testing.T) {
	e := tpchEngine(t)

	// An ON clause may not reference tables that join later in the FROM
	// list.
	_, err := Plan(e.Catalog(),
		`SELECT * FROM nation JOIN supplier ON s_nationkey = n_nationkey AND c_nationkey = n_nationkey JOIN customer ON c_nationkey = n_nationkey`)
	if err == nil {
		t.Fatal("ON referencing a later table should fail to bind")
	}
}

// A join matches keys of one kind only, so an equality between columns of
// two tables with different kinds — numeric in a filter — used to bind, run
// and silently match nothing. It is a bind error naming both columns and
// kinds, wherever the equality is written.
func TestBindRejectsMixedKindJoinKeys(t *testing.T) {
	cat := catalog.NewCatalog()
	tpch.NewGenerator(0.001, 42).Load(cat, tpch.Orders, tpch.Lineitem)

	for _, q := range []string{
		"SELECT COUNT(*) FROM orders JOIN lineitem ON l_quantity = o_totalprice",
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity = o_totalprice",
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey AND o_totalprice = l_quantity",
	} {
		_, err := Plan(cat, q)
		if err == nil {
			t.Errorf("Plan(%q) should fail", q)
			continue
		}
		for _, want := range []string{"sql: cannot join ", "l_quantity", "(int)", "o_totalprice", "(float)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Plan(%q): error %q does not mention %q", q, err, want)
			}
		}
	}
	if _, err := Plan(cat, "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderdate = l_quantity"); err == nil ||
		!strings.Contains(err.Error(), "(date)") {
		t.Errorf("date key against int key: %v, want a cannot-join error naming the kinds", err)
	}

	for _, q := range []string{
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey",
		// Not join edges: an inequality, and an equality inside an OR, compare numerically.
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey AND l_quantity < o_totalprice",
		"SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity = o_totalprice OR l_quantity = 1",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity = l_extendedprice",
	} {
		if _, err := Plan(cat, q); err != nil {
			t.Errorf("Plan(%q): %v", q, err)
		}
	}
}
