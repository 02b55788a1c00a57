// Package catalog holds table schemas and the table registry of the
// simulated database engine.
package catalog

import (
	"fmt"
	"sort"

	"ecodb/internal/expr"
	"ecodb/internal/storage"
)

// Column describes one column.
type Column struct {
	Name string
	Kind expr.Kind
}

// Schema is an ordered set of columns with name lookup.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a base table's schema; duplicate column names panic
// (table definitions are static in this system). A derived relation's
// schema comes from Derived.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.index[c.Name]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %q", c.Name))
		}
		s.index[c.Name] = i
	}
	return s
}

// Derived builds the schema of a derived relation — a join, a star list, a
// projection, an aggregate — whose names may repeat. This is the one naming
// rule for them: a repeated name becomes name_k with the least k ≥ 2 that
// no earlier column holds, renamed ones included. The index map doubles as
// the set of taken names, and a name is formatted only on a collision.
// Derived owns cols and renames in place.
func Derived(cols []Column) *Schema {
	s := &Schema{cols: cols, index: make(map[string]int, len(cols))}
	for i := range cols {
		name := cols[i].Name
		for k := 2; ; k++ {
			if _, taken := s.index[name]; !taken {
				break
			}
			name = fmt.Sprintf("%s_%d", cols[i].Name, k)
		}
		cols[i].Name = name
		s.index[name] = i
	}
	return s
}

// Columns returns the column list.
func (s *Schema) Columns() []Column { return s.cols }

// NumCols returns the column count.
func (s *Schema) NumCols() int { return len(s.cols) }

// Index returns the position of a column by name.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of a column, panicking if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("catalog: no column %q", name))
	}
	return i
}

// Col returns an expression referencing the named column.
func (s *Schema) Col(name string) expr.Col {
	return expr.Col{Idx: s.MustIndex(name), Name: name}
}

// Concat returns a schema with b's columns appended to a's (join output),
// named by Derived's rule.
func Concat(a, b *Schema) *Schema {
	cols := make([]Column, 0, a.NumCols()+b.NumCols())
	cols = append(cols, a.cols...)
	return Derived(append(cols, b.cols...))
}

// Table couples a schema with heap storage.
type Table struct {
	Name   string
	Schema *Schema
	Heap   *storage.Heap

	// stats caches the optimizer statistics; see Table.Stats.
	stats *TableStats
}

// NewTable creates an empty table with the default page size.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, Heap: storage.NewHeap(0)}
}

// Insert validates the row against the schema — its arity, and the kind of
// every non-NULL value — and appends it. This is where a column comes to
// hold one kind: every vector built from it later inherits that.
func (t *Table) Insert(row expr.Row) {
	if len(row) != t.Schema.NumCols() {
		panic(fmt.Sprintf("catalog: row arity %d does not match %s schema arity %d",
			len(row), t.Name, t.Schema.NumCols()))
	}
	for i, c := range t.Schema.cols {
		if k := row[i].Kind; k != expr.KindNull && k != c.Kind {
			panic(fmt.Sprintf("catalog: %v value %v in %s.%s, a %v column", k, row[i], t.Name, c.Name, c.Kind))
		}
	}
	t.Heap.Append(row)
}

// AppendBatch validates a column batch against the schema — its arity, and
// each column's length and kind, once per column — and appends its rows:
// the bulk-load path, doing per column what Insert does per value.
func (t *Table) AppendBatch(b *expr.Batch) {
	if len(b.Cols) != t.Schema.NumCols() {
		panic(fmt.Sprintf("catalog: batch arity %d does not match %s schema arity %d",
			len(b.Cols), t.Name, t.Schema.NumCols()))
	}
	for i, c := range t.Schema.cols {
		v := &b.Cols[i]
		if v.Len() != b.N {
			panic(fmt.Sprintf("catalog: %s.%s has %d values in a batch of %d rows", t.Name, c.Name, v.Len(), b.N))
		}
		if v.Kind != expr.KindNull && v.Kind != c.Kind {
			panic(fmt.Sprintf("catalog: %v column for %s.%s, a %v column", v.Kind, t.Name, c.Name, c.Kind))
		}
	}
	t.Heap.AppendBatch(b)
}

// Catalog is the table registry.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Create registers a table; re-creating an existing name is an error.
func (c *Catalog) Create(t *Table) error {
	if _, exists := c.tables[t.Name]; exists {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// MustCreate registers a table, panicking on duplicates.
func (c *Catalog) MustCreate(t *Table) {
	if err := c.Create(t); err != nil {
		panic(err)
	}
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q", name)
	}
	return t, nil
}

// MustTable looks up a table, panicking if absent.
func (c *Catalog) MustTable(name string) *Table {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Names returns all table names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the combined heap footprint of all tables.
func (c *Catalog) TotalBytes() int64 {
	var n int64
	for _, t := range c.tables {
		n += t.Heap.Bytes()
	}
	return n
}
