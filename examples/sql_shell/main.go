// SQL shell: drive the engine through the SQL front end the way the
// paper's JDBC clients drove theirs. Runs a fixed script of statements —
// including TPC-H Q5 itself — and prints results with simulated time and
// energy per statement.
package main

import (
	"fmt"

	"ecodb/internal/engine"
	"ecodb/internal/hw/system"
	"ecodb/internal/sql"
	"ecodb/internal/tpch"
)

func main() {
	m := system.NewSUT()
	e := engine.New(engine.ProfileMySQLMemory(), m)
	tpch.NewGenerator(0.01, 42).Load(e.Catalog(),
		tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem)

	script := []string{
		`SELECT COUNT(*) AS lineitems FROM lineitem`,
		`SELECT l_quantity AS q, COUNT(*) AS n
		 FROM lineitem WHERE l_quantity IN (1, 25, 50)
		 GROUP BY l_quantity ORDER BY q`,
		`SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		 FROM region
		 JOIN nation ON n_regionkey = r_regionkey
		 JOIN customer ON c_nationkey = n_nationkey
		 JOIN orders ON o_custkey = c_custkey
		 JOIN lineitem ON l_orderkey = o_orderkey
		 JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		 WHERE r_name = 'AMERICA'
		   AND o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1996-01-01'
		 GROUP BY n_name ORDER BY revenue DESC`,
		`EXPLAIN SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		 FROM region
		 JOIN nation ON n_regionkey = r_regionkey
		 JOIN customer ON c_nationkey = n_nationkey
		 JOIN orders ON o_custkey = c_custkey
		 JOIN lineitem ON l_orderkey = o_orderkey
		 JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		 WHERE r_name = 'AMERICA'
		   AND o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1996-01-01'
		 GROUP BY n_name ORDER BY revenue DESC`,
		`EXPLAIN ANALYZE SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
		 FROM region
		 JOIN nation ON n_regionkey = r_regionkey
		 JOIN customer ON c_nationkey = n_nationkey
		 JOIN orders ON o_custkey = c_custkey
		 JOIN lineitem ON l_orderkey = o_orderkey
		 JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
		 WHERE r_name = 'AMERICA'
		   AND o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1996-01-01'
		 GROUP BY n_name ORDER BY revenue DESC`,
	}

	for i, q := range script {
		fmt.Printf("ecodb> statement %d\n", i+1)
		stmt, err := sql.Parse(q)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if stmt.Explain {
			var out string
			if stmt.Analyze {
				out, err = sql.ExplainAnalyze(e, q)
			} else {
				out, err = sql.Explain(e, q)
			}
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(out)
			continue
		}
		p, err := sql.Bind(e.Catalog(), stmt)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		// Stream result batches straight off the executor: rows are
		// printed as they are produced, never materialized server-side.
		t0 := m.Clock.Now()
		rows := e.Query(p)
		for _, col := range rows.Schema().Columns() {
			fmt.Printf("%-14s", col.Name)
		}
		fmt.Println()
		for {
			b, err := rows.Next()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if b == nil {
				break
			}
			for _, row := range b.Rows() {
				for _, v := range row {
					fmt.Printf("%-14v", v)
				}
				fmt.Println()
			}
		}
		st := rows.Stats()
		energy := m.CPU.Trace().Energy(t0, m.Clock.Now())
		fmt.Printf("(%d rows, %v simulated, %.2f J CPU)\n\n", st.RowsOut, st.Duration, float64(energy))
	}
}
