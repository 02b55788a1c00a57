package tpch

import (
	"fmt"
	"math"
	"slices"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/sim"
)

// Date range of o_orderdate per the TPC-H specification.
var (
	orderDateLo = expr.MustParseDate("1992-01-01").I
	orderDateHi = expr.MustParseDate("1998-08-02").I
)

// Generator produces TPC-H tables deterministically from a seed.
type Generator struct {
	SF   float64
	Seed uint64
}

// CheckScale reports why sf is not a scale factor the generator accepts:
// it must be positive and finite. Commands check flags with it before
// generating anything.
func CheckScale(sf float64) error {
	if !(sf > 0) || math.IsInf(sf, 1) {
		return fmt.Errorf("scale factor must be positive and finite, got %v", sf)
	}
	return nil
}

// NewGenerator returns a generator for the given scale factor. A scale
// factor CheckScale rejects panics.
func NewGenerator(sf float64, seed uint64) *Generator {
	if err := CheckScale(sf); err != nil {
		panic("tpch: " + err.Error())
	}
	return &Generator{SF: sf, Seed: seed}
}

// Load generates the named tables (all eight when none are named) into the
// catalog, each as typed column payloads appended in one batch. Orders and
// lineitem are generated together so line items agree with their orders.
// A name outside Tables panics.
func (g *Generator) Load(cat *catalog.Catalog, tables ...string) {
	if len(tables) == 0 {
		tables = Tables
	}
	want := map[string]bool{}
	for _, t := range tables {
		if !slices.Contains(Tables, t) {
			panic("tpch: unknown table " + t)
		}
		want[t] = true
	}
	if want[Region] {
		g.loadRegion(cat)
	}
	if want[Nation] {
		g.loadNation(cat)
	}
	if want[Supplier] {
		g.loadSupplier(cat)
	}
	if want[Customer] {
		g.loadCustomer(cat)
	}
	if want[Orders] || want[Lineitem] {
		g.loadOrdersAndLineitem(cat, want[Orders], want[Lineitem])
	}
	if want[Part] {
		g.loadPart(cat)
	}
	if want[PartSupp] {
		g.loadPartSupp(cat)
	}
}

// create registers a table built from its column payloads. The payloads
// are staging: the heap copies each column once into an array of its own,
// which its pages are windows into, so they are garbage once create
// returns.
func create(cat *catalog.Catalog, name string, schema *catalog.Schema, cols ...expr.ColVec) {
	t := catalog.NewTable(name, schema)
	t.AppendBatch(&expr.Batch{Cols: cols, N: cols[0].Len()})
	cat.MustCreate(t)
}

// keys returns 1..n, the dense primary keys of a generated table.
func keys(n int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i) + 1
	}
	return ks
}

func (g *Generator) loadRegion(cat *catalog.Catalog) {
	n := len(RegionNames)
	key, comment := make([]int64, n), make([]string, n)
	for i := range n {
		key[i], comment[i] = int64(i), "established region of commerce"
	}
	create(cat, Region, RegionSchema(),
		expr.IntVec(expr.KindInt, key), expr.StringVec(RegionNames), expr.StringVec(comment))
}

func (g *Generator) loadNation(cat *catalog.Catalog) {
	n := len(NationNames)
	key, name, region := make([]int64, n), make([]string, n), make([]int64, n)
	for i, nat := range NationNames {
		key[i], name[i], region[i] = int64(i), nat.Name, int64(nat.Region)
	}
	create(cat, Nation, NationSchema(),
		expr.IntVec(expr.KindInt, key), expr.StringVec(name), expr.IntVec(expr.KindInt, region))
}

func (g *Generator) loadSupplier(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x05)
	n := Cardinality(Supplier, g.SF)
	name, nation, bal := make([]string, n), make([]int64, n), make([]float64, n)
	for i := range n {
		name[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nation[i] = int64(rng.Intn(len(NationNames)))
		bal[i] = float64(rng.IntRange(-99999, 999999)) / 100
	}
	create(cat, Supplier, SupplierSchema(),
		expr.IntVec(expr.KindInt, keys(n)), expr.StringVec(name),
		expr.IntVec(expr.KindInt, nation), expr.FloatVec(bal))
}

func (g *Generator) loadCustomer(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x0C)
	n := Cardinality(Customer, g.SF)
	name, nation, bal, seg := make([]string, n), make([]int64, n), make([]float64, n), make([]string, n)
	for i := range n {
		name[i] = fmt.Sprintf("Customer#%09d", i+1)
		nation[i] = int64(rng.Intn(len(NationNames)))
		bal[i] = float64(rng.IntRange(-99999, 999999)) / 100
		seg[i] = MktSegments[rng.Intn(len(MktSegments))]
	}
	create(cat, Customer, CustomerSchema(),
		expr.IntVec(expr.KindInt, keys(n)), expr.StringVec(name),
		expr.IntVec(expr.KindInt, nation), expr.FloatVec(bal), expr.StringVec(seg))
}

// orderCols and lineCols are the orders and lineitem payloads under
// construction, one slice per schema column.
type orderCols struct {
	cust, date []int64
	status     []string
	total      []float64
}

type lineCols struct {
	order, line, supp, qty, ship []int64
	price, disc                  []float64
}

func (g *Generator) loadOrdersAndLineitem(cat *catalog.Catalog, wantOrders, wantLineitem bool) {
	rng := sim.NewRNG(g.Seed ^ 0x01)
	nOrders := Cardinality(Orders, g.SF)
	nCust := Cardinality(Customer, g.SF)
	nSupp := Cardinality(Supplier, g.SF)
	statuses := []string{"F", "O", "P"}

	var o orderCols
	if wantOrders {
		o = orderCols{make([]int64, 0, nOrders), make([]int64, 0, nOrders), make([]string, 0, nOrders), make([]float64, 0, nOrders)}
	}
	var l lineCols
	if wantLineitem {
		// Lines per order are uniform on 1..MaxLinesPerOrder: mean 4,
		// variance 4. Four standard deviations over the mean leaves the
		// payloads essentially never regrowing.
		c := nOrders*(1+MaxLinesPerOrder)/2 + int64(8*math.Sqrt(float64(nOrders))) + 64
		l = lineCols{
			make([]int64, 0, c), make([]int64, 0, c), make([]int64, 0, c), make([]int64, 0, c), make([]int64, 0, c),
			make([]float64, 0, c), make([]float64, 0, c),
		}
	}

	for ok := int64(1); ok <= nOrders; ok++ {
		custkey := rng.Int63n(nCust) + 1
		orderdate := orderDateLo + rng.Int63n(orderDateHi-orderDateLo)
		lines := 1 + rng.Intn(MaxLinesPerOrder)
		var total float64

		for ln := 1; ln <= lines; ln++ {
			qty := int64(rng.IntRange(1, 50))
			price := float64(qty) * (900 + float64(rng.Intn(100100))/100) / 10
			disc := float64(rng.Intn(11)) / 100
			ship := orderdate + int64(rng.IntRange(1, 121))
			total += price * (1 - disc)
			if wantLineitem {
				l.order = append(l.order, ok)
				l.line = append(l.line, int64(ln))
				l.supp = append(l.supp, rng.Int63n(nSupp)+1)
				l.qty = append(l.qty, qty)
				l.price = append(l.price, price)
				l.disc = append(l.disc, disc)
				l.ship = append(l.ship, ship)
			}
		}
		if wantOrders {
			o.cust = append(o.cust, custkey)
			o.status = append(o.status, statuses[rng.Intn(len(statuses))])
			o.total = append(o.total, total)
			o.date = append(o.date, orderdate)
		}
	}
	if wantOrders {
		create(cat, Orders, OrdersSchema(),
			expr.IntVec(expr.KindInt, keys(nOrders)), expr.IntVec(expr.KindInt, o.cust),
			expr.StringVec(o.status), expr.FloatVec(o.total), expr.IntVec(expr.KindDate, o.date))
	}
	if wantLineitem {
		create(cat, Lineitem, LineitemSchema(),
			expr.IntVec(expr.KindInt, l.order), expr.IntVec(expr.KindInt, l.line),
			expr.IntVec(expr.KindInt, l.supp), expr.IntVec(expr.KindInt, l.qty),
			expr.FloatVec(l.price), expr.FloatVec(l.disc), expr.IntVec(expr.KindDate, l.ship))
	}
}

func (g *Generator) loadPart(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x09)
	n := Cardinality(Part, g.SF)
	name, brand, price := make([]string, n), make([]string, n), make([]float64, n)
	for i := range n {
		k := i + 1
		name[i] = fmt.Sprintf("part %d", k)
		brand[i] = fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))
		price[i] = 900 + float64(k%1000)
	}
	create(cat, Part, PartSchema(),
		expr.IntVec(expr.KindInt, keys(n)), expr.StringVec(name), expr.StringVec(brand), expr.FloatVec(price))
}

func (g *Generator) loadPartSupp(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x77)
	nParts := Cardinality(Part, g.SF)
	nSupp := Cardinality(Supplier, g.SF)
	n := 4 * nParts
	part, supp, qty, cost := make([]int64, 0, n), make([]int64, 0, n), make([]int64, 0, n), make([]float64, 0, n)
	for p := int64(1); p <= nParts; p++ {
		for i := int64(0); i < 4; i++ {
			part = append(part, p)
			supp = append(supp, (p+i*nParts/4)%nSupp+1)
			qty = append(qty, int64(rng.IntRange(1, 9999)))
			cost = append(cost, float64(rng.IntRange(100, 100000))/100)
		}
	}
	create(cat, PartSupp, PartSuppSchema(),
		expr.IntVec(expr.KindInt, part), expr.IntVec(expr.KindInt, supp),
		expr.IntVec(expr.KindInt, qty), expr.FloatVec(cost))
}
