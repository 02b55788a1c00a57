package sql

import (
	"fmt"
	"testing"

	"ecodb/internal/engine"
	"ecodb/internal/expr"
	"ecodb/internal/hw/system"
	"ecodb/internal/tpch"
)

// kindShapes aggregate MIN and MAX over int, date, string, float and bool
// arguments, grouped and global — the aggregates whose output kind is their
// argument's — and project literals, whose kind is the value they bind to
// (an integral literal past 10¹⁵ binds as a float). The last five repeat
// an output name, which the derived schema qualifies as name_k.
var kindShapes = []string{
	`SELECT 10000000000000000 AS big, 2.5 AS f, 7 AS i, DATE '1995-01-01' AS d, 'x' AS s FROM region`,
	`SELECT MAX(o_orderdate), MIN(o_orderstatus) FROM orders GROUP BY o_orderstatus`,
	`SELECT MIN(l_quantity) AS lo, MAX(l_quantity) AS hi, MIN(l_shipdate) AS first, MAX(l_extendedprice) AS top FROM lineitem`,
	`SELECT n_regionkey, MIN(n_name) AS first, MAX(n_nationkey) AS last, COUNT(*) AS n FROM nation GROUP BY n_regionkey ORDER BY first`,
	`SELECT c_mktsegment, MAX(c_acctbal * 2) AS top, MIN(c_nationkey < 5) AS flag FROM customer GROUP BY c_mktsegment`,
	`SELECT n_name, n_name FROM nation`,
	`SELECT n_name, n_name FROM nation ORDER BY n_name_2`,
	`SELECT n_name AS x, n_regionkey AS x FROM nation`,
	`SELECT COUNT(*) AS n, SUM(n_regionkey) AS n FROM nation`,
	`SELECT n_regionkey, SUM(n_nationkey) AS n_regionkey FROM nation GROUP BY n_regionkey`,
}

// tinyTPCH is an engine over TPC-H at scale factor 0.0005 that runs its
// fragments on two workers, so the parallel operators and their merges
// produce the result vectors too.
func tinyTPCH() *engine.Engine {
	prof := engine.ProfileMySQLMemory()
	prof.Workers = 2
	e := engine.New(prof, system.NewSUT())
	tpch.NewGenerator(0.0005, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)
	return e
}

// runCheckingKinds plans query and, when it binds, drains it, returning
// the first result vector whose values are not of its schema column's
// kind. An all-NULL vector has no kind of its own and fits any column.
func runCheckingKinds(e *engine.Engine, query string) (planned bool, err error) {
	p, err := Plan(e.Catalog(), query)
	if err != nil {
		return false, nil
	}
	rows := e.Query(p)
	defer rows.Close()
	cols := rows.Schema().Columns()
	for {
		b, err := rows.Next()
		if b == nil || err != nil {
			return true, err
		}
		if len(b.Cols) != len(cols) {
			return true, fmt.Errorf("a batch of %d columns under a schema of %d", len(b.Cols), len(cols))
		}
		for c := range b.Cols {
			if k := b.Cols[c].Kind; k != expr.KindNull && k != cols[c].Kind {
				return true, fmt.Errorf("column %d %q holds %v values, its schema says %v", c, cols[c].Name, k, cols[c].Kind)
			}
		}
	}
}

// TestResultVectorsHoldTheirSchemaKinds: what Rows.Schema() advertises is
// what the vectors carry, for every served statement shape and for
// kindShapes: MIN and MAX keep their argument's kind rather than turning
// float, and a literal's column has the kind of the value it binds to.
func TestResultVectorsHoldTheirSchemaKinds(t *testing.T) {
	e := tinyTPCH()
	for _, q := range append(append([]string(nil), servedShapes...), kindShapes...) {
		planned, err := runCheckingKinds(e, q)
		if !planned {
			t.Fatalf("%s: does not plan", q)
		}
		if err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// FuzzPlanExecute: any text sql.Plan accepts runs to completion without a
// panic, and every result vector holds its schema column's kind. Seeds are
// the served statement shapes and kindShapes.
func FuzzPlanExecute(f *testing.F) {
	for _, q := range servedShapes {
		f.Add(q)
	}
	for _, q := range kindShapes {
		f.Add(q)
	}
	e := tinyTPCH()
	f.Fuzz(func(t *testing.T, query string) {
		if _, err := runCheckingKinds(e, query); err != nil {
			t.Fatalf("%q: %v", query, err)
		}
	})
}
