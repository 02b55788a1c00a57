package tpch

import (
	"fmt"

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

// NewGenerator returns a generator for the given scale factor.
// Non-positive scale factors panic.
func NewGenerator(sf float64, seed uint64) *Generator {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: non-positive scale factor %v", sf))
	}
	return &Generator{SF: sf, Seed: seed}
}

// Load generates the named tables (all eight when none are named) into the
// catalog. Orders and lineitem are generated together so line items agree
// with their orders.
func (g *Generator) Load(cat *catalog.Catalog, tables ...string) {
	want := map[string]bool{}
	if len(tables) == 0 {
		tables = []string{Region, Nation, Supplier, Customer, Orders, Lineitem, Part, PartSupp}
	}
	for _, t := range tables {
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

func (g *Generator) loadRegion(cat *catalog.Catalog) {
	t := catalog.NewTable(Region, RegionSchema())
	for i, name := range RegionNames {
		t.Insert(expr.Row{
			expr.Int(int64(i)),
			expr.String(name),
			expr.String("established region of commerce"),
		})
	}
	cat.MustCreate(t)
}

func (g *Generator) loadNation(cat *catalog.Catalog) {
	t := catalog.NewTable(Nation, NationSchema())
	for i, n := range NationNames {
		t.Insert(expr.Row{
			expr.Int(int64(i)),
			expr.String(n.Name),
			expr.Int(int64(n.Region)),
		})
	}
	cat.MustCreate(t)
}

func (g *Generator) loadSupplier(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x05)
	t := catalog.NewTable(Supplier, SupplierSchema())
	n := Cardinality(Supplier, g.SF)
	for k := int64(1); k <= n; k++ {
		t.Insert(expr.Row{
			expr.Int(k),
			expr.String(fmt.Sprintf("Supplier#%09d", k)),
			expr.Int(int64(rng.Intn(len(NationNames)))),
			expr.Float(float64(rng.IntRange(-99999, 999999)) / 100),
		})
	}
	cat.MustCreate(t)
}

func (g *Generator) loadCustomer(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x0C)
	t := catalog.NewTable(Customer, CustomerSchema())
	n := Cardinality(Customer, g.SF)
	for k := int64(1); k <= n; k++ {
		t.Insert(expr.Row{
			expr.Int(k),
			expr.String(fmt.Sprintf("Customer#%09d", k)),
			expr.Int(int64(rng.Intn(len(NationNames)))),
			expr.Float(float64(rng.IntRange(-99999, 999999)) / 100),
			expr.String(MktSegments[rng.Intn(len(MktSegments))]),
		})
	}
	cat.MustCreate(t)
}

func (g *Generator) loadOrdersAndLineitem(cat *catalog.Catalog, wantOrders, wantLineitem bool) {
	rng := sim.NewRNG(g.Seed ^ 0x01)
	var ot, lt *catalog.Table
	if wantOrders {
		ot = catalog.NewTable(Orders, OrdersSchema())
	}
	if wantLineitem {
		lt = catalog.NewTable(Lineitem, LineitemSchema())
	}
	nOrders := Cardinality(Orders, g.SF)
	nCust := Cardinality(Customer, g.SF)
	statuses := []string{"F", "O", "P"}

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
			if lt != nil {
				lt.Insert(expr.Row{
					expr.Int(ok),
					expr.Int(int64(ln)),
					expr.Int(rng.Int63n(Cardinality(Supplier, g.SF)) + 1),
					expr.Int(qty),
					expr.Float(price),
					expr.Float(disc),
					expr.Date(ship),
				})
			}
		}
		if ot != nil {
			ot.Insert(expr.Row{
				expr.Int(ok),
				expr.Int(custkey),
				expr.String(statuses[rng.Intn(len(statuses))]),
				expr.Float(total),
				expr.Date(orderdate),
			})
		}
	}
	if ot != nil {
		cat.MustCreate(ot)
	}
	if lt != nil {
		cat.MustCreate(lt)
	}
}

func (g *Generator) loadPart(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x09)
	t := catalog.NewTable(Part, PartSchema())
	n := Cardinality(Part, g.SF)
	for k := int64(1); k <= n; k++ {
		t.Insert(expr.Row{
			expr.Int(k),
			expr.String(fmt.Sprintf("part %d", k)),
			expr.String(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			expr.Float(900 + float64(k%1000)),
		})
	}
	cat.MustCreate(t)
}

func (g *Generator) loadPartSupp(cat *catalog.Catalog) {
	rng := sim.NewRNG(g.Seed ^ 0x77)
	t := catalog.NewTable(PartSupp, PartSuppSchema())
	nParts := Cardinality(Part, g.SF)
	nSupp := Cardinality(Supplier, g.SF)
	for p := int64(1); p <= nParts; p++ {
		for i := 0; i < 4; i++ {
			t.Insert(expr.Row{
				expr.Int(p),
				expr.Int((p+int64(i)*nParts/4)%nSupp + 1),
				expr.Int(int64(rng.IntRange(1, 9999))),
				expr.Float(float64(rng.IntRange(100, 100000)) / 100),
			})
		}
	}
	cat.MustCreate(t)
}
