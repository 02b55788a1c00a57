package tpch

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// The compressed-storage workload: selective range scans that zone maps can
// prune and string-equality scans that dictionary encoding accelerates.
//
// l_orderkey is generated in strictly increasing order, so every lineitem
// heap page covers a narrow, disjoint key band — the clustered-key shape on
// which per-page min/max zone maps skip almost the whole table for a narrow
// range predicate. l_quantity, by contrast, is uniform 1..50 on every page:
// zone maps can never prune it, which is why the band workload of the
// shared-scan ablation is useless here and this file exists.

// OrderkeyBandQuery builds a full-row range selection over lineitem:
// lo <= l_orderkey < lo+width.
func OrderkeyBandQuery(cat *catalog.Catalog, lo, width int64) plan.Node {
	t := cat.MustTable(Lineitem)
	return selection(t, expr.Between{
		E:  t.Schema.Col("l_orderkey"),
		Lo: expr.Int(lo),
		Hi: expr.Int(lo + width),
	})
}

// OrderkeyBandWorkload builds n non-overlapping order-key range selections,
// each covering ~1% of the key domain, evenly spread across it. sf must be
// the scale factor the catalog was generated at — it fixes the key domain
// (order keys are dense in 1..Cardinality(Orders, sf)).
func OrderkeyBandWorkload(cat *catalog.Catalog, sf float64, n int) []plan.Node {
	if n < 1 || n > 50 {
		panic(fmt.Sprintf("tpch: orderkey band workload size %d outside [1,50]", n))
	}
	nOrders := Cardinality(Orders, sf)
	width := nOrders / 100
	if width < 1 {
		width = 1
	}
	out := make([]plan.Node, n)
	for i := range out {
		lo := 1 + (int64(i)*nOrders)/int64(n)
		out[i] = OrderkeyBandQuery(cat, lo, width)
	}
	return out
}

// StatusQuery builds a full-row selection of orders by order status — a
// string-equality predicate over a three-value column. Every page holds all
// three statuses, so zone maps never prune it; the win is dictionary
// encoding, which turns the per-row string comparison into an integer code
// comparison.
func StatusQuery(cat *catalog.Catalog, status string) plan.Node {
	t := cat.MustTable(Orders)
	return selection(t, expr.Cmp{
		Op: expr.EQ,
		L:  t.Schema.Col("o_orderstatus"),
		R:  expr.Const{V: expr.String(status)},
	})
}

// SegmentQuery builds a full-row selection of customers by market segment —
// the same dictionary-friendly shape as StatusQuery over a five-value
// column.
func SegmentQuery(cat *catalog.Catalog, segment string) plan.Node {
	t := cat.MustTable(Customer)
	return selection(t, expr.Cmp{
		Op: expr.EQ,
		L:  t.Schema.Col("c_mktsegment"),
		R:  expr.Const{V: expr.String(segment)},
	})
}

// CompressionWorkload builds the mixed workload of the compressed-storage
// ablation: nBands narrow order-key ranges over lineitem (zone-map fodder),
// the three order-status selections over orders, and the five
// market-segment selections over customer (dictionary fodder). It needs the
// lineitem, orders, and customer tables loaded at scale factor sf.
func CompressionWorkload(cat *catalog.Catalog, sf float64, nBands int) []plan.Node {
	out := OrderkeyBandWorkload(cat, sf, nBands)
	for _, status := range []string{"F", "O", "P"} {
		out = append(out, StatusQuery(cat, status))
	}
	for _, seg := range MktSegments {
		out = append(out, SegmentQuery(cat, seg))
	}
	return out
}
