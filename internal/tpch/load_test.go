package tpch

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/storage"
)

// heapDiff describes the first difference between two heaps, page by
// page: row count, footprint, every zone, and each vector's kind, length,
// NULL positions and payload. It returns "" when they are the same.
func heapDiff(got, want *storage.Heap) string {
	if got.NumPages() != want.NumPages() || got.NumRows() != want.NumRows() || got.Bytes() != want.Bytes() {
		return fmt.Sprintf("%d pages, %d rows, %d bytes; want %d pages, %d rows, %d bytes",
			got.NumPages(), got.NumRows(), got.Bytes(), want.NumPages(), want.NumRows(), want.Bytes())
	}
	for p := 0; p < got.NumPages(); p++ {
		g, w := got.Page(p), want.Page(p)
		if g.Data.N != w.Data.N || g.Bytes != w.Bytes {
			return fmt.Sprintf("page %d: N %d, Bytes %d; want N %d, Bytes %d", p, g.Data.N, g.Bytes, w.Data.N, w.Bytes)
		}
		for c := range w.Data.Cols {
			if g.Zones[c] != w.Zones[c] {
				return fmt.Sprintf("page %d column %d: zone %+v, want %+v", p, c, g.Zones[c], w.Zones[c])
			}
			if d := vecDiff(&g.Data.Cols[c], &w.Data.Cols[c]); d != "" {
				return fmt.Sprintf("page %d column %d: %s", p, c, d)
			}
		}
	}
	return ""
}

func vecDiff(g, w *expr.ColVec) string {
	switch {
	case g.Kind != w.Kind || g.Len() != w.Len():
		return fmt.Sprintf("%v × %d, want %v × %d", g.Kind, g.Len(), w.Kind, w.Len())
	case (g.Nulls == nil) != (w.Nulls == nil) || !slices.Equal(g.Nulls, w.Nulls):
		return fmt.Sprintf("NULLs %v, want %v", g.Nulls, w.Nulls)
	case !slices.Equal(g.I, w.I) || !slices.EqualFunc(g.F, w.F, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
		return "numeric payloads differ"
	case !slices.Equal(g.S, w.S) || !slices.Equal(g.Codes, w.Codes):
		return "string payloads differ"
	case (g.Dict == nil) != (w.Dict == nil):
		return fmt.Sprintf("dictionary %v, want %v", g.Dict != nil, w.Dict != nil)
	}
	if g.Dict != nil {
		for i := 0; i < max(g.Dict.Len(), w.Dict.Len()); i++ {
			if i >= g.Dict.Len() || i >= w.Dict.Len() || g.Dict.Word(int32(i)) != w.Dict.Word(int32(i)) {
				return "dictionaries differ"
			}
		}
	}
	return ""
}

// insertCopy builds a table like t by inserting t's rows one at a time.
func insertCopy(t *catalog.Table) *catalog.Table {
	c := catalog.NewTable(t.Name, t.Schema)
	for p := 0; p < t.Heap.NumPages(); p++ {
		for _, row := range t.Heap.Page(p).Rows() {
			c.Insert(row)
		}
	}
	return c
}

// TestBulkLoadMatchesInsert checks that every generated table's heap is
// the one row-at-a-time inserts of its rows build: same page cuts, zones
// and vectors, with and without dictionary-encoded strings.
func TestBulkLoadMatchesInsert(t *testing.T) {
	for _, sf := range []float64{0.002, 0.01} {
		for _, compress := range []bool{false, true} {
			cat := loadAll(t, sf)
			for _, name := range Tables {
				bulk := cat.MustTable(name)
				ref := insertCopy(bulk)
				if compress {
					bulk.Heap.CompressStrings()
					ref.Heap.CompressStrings()
				}
				if d := heapDiff(bulk.Heap, ref.Heap); d != "" {
					t.Errorf("sf %g %s (compressed %v): bulk load %s", sf, name, compress, d)
				}
			}
		}
	}
}

// TestBulkLoadNullsMatchInsert is the hand-built case the generator never
// produces: NULLs scattered through a column, and a column NULL across a
// whole page, appended in batches of uneven size.
func TestBulkLoadNullsMatchInsert(t *testing.T) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Kind: expr.KindInt},
		catalog.Column{Name: "s", Kind: expr.KindString},
		catalog.Column{Name: "f", Kind: expr.KindFloat},
	)
	var rows []expr.Row
	for i := 0; i < 2000; i++ {
		row := expr.Row{expr.Int(int64(i)), expr.String(strings.Repeat("x", i%13)), expr.Float(float64(i%97) / 4)}
		if i%7 == 3 {
			row[1] = expr.Value{}
		}
		if i >= 300 && i < 1200 {
			row[2] = expr.Value{}
		}
		rows = append(rows, row)
	}
	bulk := catalog.NewTable("t", schema)
	for _, cut := range [][2]int{{0, 1}, {1, 777}, {777, 778}, {778, 2000}} {
		b := expr.NewBatch(schema.NumCols())
		for _, row := range rows[cut[0]:cut[1]] {
			b.AppendRow(row)
		}
		bulk.AppendBatch(b)
	}
	ref := catalog.NewTable("t", schema)
	for _, row := range rows {
		ref.Insert(row)
	}
	if d := heapDiff(bulk.Heap, ref.Heap); d != "" {
		t.Fatalf("bulk load %s", d)
	}
	allNull := false
	for p := 0; p < bulk.Heap.NumPages(); p++ {
		allNull = allNull || bulk.Heap.Page(p).Data.Cols[2].Kind == expr.KindNull
	}
	if !allNull {
		t.Fatal("no page holds an all-NULL column: the case no longer covers one")
	}
}

// TestLoadAllocations bounds what loading orders and lineitem allocates:
// a page's vectors each take one payload allocation (two with NULLs), so
// the count follows page columns, never rows.
func TestLoadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are those of the normal build")
	}
	var cat *catalog.Catalog
	allocs := testing.AllocsPerRun(1, func() {
		cat = catalog.NewCatalog()
		NewGenerator(0.01, 42).Load(cat, Orders, Lineitem)
	})
	pageCols := 0
	for _, name := range []string{Orders, Lineitem} {
		tab := cat.MustTable(name)
		pageCols += tab.Heap.NumPages() * tab.Schema.NumCols()
	}
	if limit := 2*pageCols + 100; allocs > float64(limit) {
		t.Fatalf("loading orders and lineitem made %.0f allocations for %d page columns, limit %d", allocs, pageCols, limit)
	}
}

// TestGeneratedDataDigest pins the generated rows: a loader change must
// draw from the RNG in the same order and keep every value.
func TestGeneratedDataDigest(t *testing.T) {
	for _, c := range []struct {
		tables []string
		want   uint64
	}{
		{nil, 0xb952964abecffb80},
		{[]string{Orders}, 0x9de7cb9889f486fd},
		{[]string{Lineitem}, 0xa0ad1fa2214e7013},
	} {
		cat := catalog.NewCatalog()
		NewGenerator(0.002, 42).Load(cat, c.tables...)
		h := fnv.New64a()
		for _, name := range cat.Names() {
			heap := cat.MustTable(name).Heap
			fmt.Fprintf(h, "%s:", name)
			for p := 0; p < heap.NumPages(); p++ {
				for _, row := range heap.Page(p).Rows() {
					for _, v := range row {
						fmt.Fprintf(h, "%d|%d|%x|%q,", v.Kind, v.I, math.Float64bits(v.F), v.S)
					}
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("tables %v: digest %#x, want %#x", c.tables, got, c.want)
		}
	}
}

func TestLoadUnknownTablePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lineitme") {
			t.Fatalf("Load of an unknown table: recovered %v, want a panic naming it", r)
		}
	}()
	NewGenerator(0.001, 42).Load(catalog.NewCatalog(), Orders, "lineitme")
}
