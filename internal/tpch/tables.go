// Package tpch generates TPC-H data deterministically and builds the
// paper's two workloads: TPC-H Q5 (the six-table join + group-by used for
// every PVC experiment) and the 2%-selectivity l_quantity selection queries
// used for QED.
//
// Schemas carry the columns the paper's queries touch plus enough
// surrounding realism to be recognizably TPC-H; wide comment columns are
// omitted from the large tables to keep generated datasets compact.
package tpch

import (
	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

// Table names.
const (
	Region   = "region"
	Nation   = "nation"
	Supplier = "supplier"
	Customer = "customer"
	Orders   = "orders"
	Lineitem = "lineitem"
	Part     = "part"
	PartSupp = "partsupp"
)

// Tables lists the eight tables in the order Generator.Load creates them.
var Tables = []string{Region, Nation, Supplier, Customer, Orders, Lineitem, Part, PartSupp}

// RegionNames are the five TPC-H regions; the paper's Q5 workload uses
// AMERICA and ASIA.
var RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// NationNames are the 25 TPC-H nations with their region assignments
// (nation key = position).
var NationNames = []struct {
	Name   string
	Region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3},
	{"UNITED STATES", 1},
}

// MktSegments are the TPC-H customer market segments.
var MktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

// Schemas.

// RegionSchema returns the region table schema.
func RegionSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "r_regionkey", Kind: expr.KindInt},
		catalog.Column{Name: "r_name", Kind: expr.KindString},
		catalog.Column{Name: "r_comment", Kind: expr.KindString},
	)
}

// NationSchema returns the nation table schema.
func NationSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "n_nationkey", Kind: expr.KindInt},
		catalog.Column{Name: "n_name", Kind: expr.KindString},
		catalog.Column{Name: "n_regionkey", Kind: expr.KindInt},
	)
}

// SupplierSchema returns the supplier table schema.
func SupplierSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "s_suppkey", Kind: expr.KindInt},
		catalog.Column{Name: "s_name", Kind: expr.KindString},
		catalog.Column{Name: "s_nationkey", Kind: expr.KindInt},
		catalog.Column{Name: "s_acctbal", Kind: expr.KindFloat},
	)
}

// CustomerSchema returns the customer table schema.
func CustomerSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "c_custkey", Kind: expr.KindInt},
		catalog.Column{Name: "c_name", Kind: expr.KindString},
		catalog.Column{Name: "c_nationkey", Kind: expr.KindInt},
		catalog.Column{Name: "c_acctbal", Kind: expr.KindFloat},
		catalog.Column{Name: "c_mktsegment", Kind: expr.KindString},
	)
}

// OrdersSchema returns the orders table schema.
func OrdersSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "o_orderkey", Kind: expr.KindInt},
		catalog.Column{Name: "o_custkey", Kind: expr.KindInt},
		catalog.Column{Name: "o_orderstatus", Kind: expr.KindString},
		catalog.Column{Name: "o_totalprice", Kind: expr.KindFloat},
		catalog.Column{Name: "o_orderdate", Kind: expr.KindDate},
	)
}

// LineitemSchema returns the lineitem table schema.
func LineitemSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "l_orderkey", Kind: expr.KindInt},
		catalog.Column{Name: "l_linenumber", Kind: expr.KindInt},
		catalog.Column{Name: "l_suppkey", Kind: expr.KindInt},
		catalog.Column{Name: "l_quantity", Kind: expr.KindInt},
		catalog.Column{Name: "l_extendedprice", Kind: expr.KindFloat},
		catalog.Column{Name: "l_discount", Kind: expr.KindFloat},
		catalog.Column{Name: "l_shipdate", Kind: expr.KindDate},
	)
}

// PartSchema returns the part table schema.
func PartSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "p_partkey", Kind: expr.KindInt},
		catalog.Column{Name: "p_name", Kind: expr.KindString},
		catalog.Column{Name: "p_brand", Kind: expr.KindString},
		catalog.Column{Name: "p_retailprice", Kind: expr.KindFloat},
	)
}

// PartSuppSchema returns the partsupp table schema.
func PartSuppSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "ps_partkey", Kind: expr.KindInt},
		catalog.Column{Name: "ps_suppkey", Kind: expr.KindInt},
		catalog.Column{Name: "ps_availqty", Kind: expr.KindInt},
		catalog.Column{Name: "ps_supplycost", Kind: expr.KindFloat},
	)
}

// Cardinalities at scale factor 1.0.
const (
	SuppliersPerSF = 10_000
	CustomersPerSF = 150_000
	OrdersPerSF    = 1_500_000
	PartsPerSF     = 200_000
	// Lineitems per order are 1..7 uniform, ≈4 on average → ≈6 M per SF.
	MaxLinesPerOrder = 7
)

// Cardinality returns the target row count for a table at scale factor sf.
// Region and nation are fixed size; others scale linearly (minimum 1).
func Cardinality(table string, sf float64) int64 {
	scale := func(base int64) int64 {
		n := int64(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	switch table {
	case Region:
		return int64(len(RegionNames))
	case Nation:
		return int64(len(NationNames))
	case Supplier:
		return scale(SuppliersPerSF)
	case Customer:
		return scale(CustomersPerSF)
	case Orders:
		return scale(OrdersPerSF)
	case Part:
		return scale(PartsPerSF)
	case PartSupp:
		return scale(4 * PartsPerSF)
	default:
		panic("tpch: unknown table " + table)
	}
}
