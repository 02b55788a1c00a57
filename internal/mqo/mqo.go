// Package mqo implements the multi-query optimization QED relies on (§4):
// structurally identical single-table selection queries are merged into one
// query whose predicate is the disjunction of the originals, the merged
// query runs once, and the combined result is split back per query in
// application logic — whose time and energy cost the paper explicitly
// charges to the measurement.
package mqo

import (
	"fmt"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// Selection describes one mergeable query: a full-row scan of a table with
// a single-column equality predicate.
type Selection struct {
	Table *catalog.Table
	Col   int
	Value expr.Value
}

// ExtractSelection recognizes a mergeable query shape. It returns false
// for anything other than Scan(table, col = const).
func ExtractSelection(n plan.Node) (Selection, bool) {
	scan, ok := n.(*plan.Scan)
	if !ok || scan.Filter == nil {
		return Selection{}, false
	}
	cmp, ok := scan.Filter.(expr.Cmp)
	if !ok || cmp.Op != expr.EQ {
		return Selection{}, false
	}
	col, ok := cmp.L.(expr.Col)
	if !ok {
		return Selection{}, false
	}
	c, ok := cmp.R.(expr.Const)
	if !ok {
		return Selection{}, false
	}
	return Selection{Table: scan.Table, Col: col.Idx, Value: c.V}, true
}

// MergeStrategy selects how the merged predicate is built.
type MergeStrategy int

const (
	// OrChain evaluates the disjunction left to right, as the paper's
	// engines do for a predicate disjunction: per-row cost grows linearly
	// with the batch size.
	OrChain MergeStrategy = iota
	// HashSet evaluates membership with a hash probe: constant per-row
	// cost. This is the "smarter plan" extension ecoDB provides beyond
	// the paper; the ablation bench compares the two.
	HashSet
)

func (s MergeStrategy) String() string {
	if s == HashSet {
		return "hash-set"
	}
	return "or-chain"
}

// Merged is a batch of selections compiled into one plan.
type Merged struct {
	Plan       plan.Node
	Selections []Selection
	Strategy   MergeStrategy
}

// Merge combines mergeable queries into a single disjunctive query.
// It fails if the queries are not all selections on the same table and
// column, if a constant's kind differs from the column's (the split routes
// on value identity, which a numerically equal constant of another kind
// does not share), or if fewer than two queries are given.
func Merge(queries []plan.Node, strategy MergeStrategy) (*Merged, error) {
	if len(queries) < 2 {
		return nil, fmt.Errorf("mqo: need at least 2 queries to merge, got %d", len(queries))
	}
	sels := make([]Selection, len(queries))
	for i, q := range queries {
		sel, ok := ExtractSelection(q)
		if !ok {
			return nil, fmt.Errorf("mqo: query %d is not a mergeable selection: %s", i, plan.Format(q))
		}
		sels[i] = sel
		if i > 0 && (sel.Table != sels[0].Table || sel.Col != sels[0].Col) {
			return nil, fmt.Errorf("mqo: query %d selects a different table or column", i)
		}
		if k := sel.Table.Schema.Columns()[sel.Col].Kind; sel.Value.Kind != k {
			return nil, fmt.Errorf("mqo: query %d compares a %v column with a %v constant", i, k, sel.Value.Kind)
		}
	}

	col := expr.Col{Idx: sels[0].Col, Name: sels[0].Table.Schema.Columns()[sels[0].Col].Name}
	var pred expr.Expr
	switch strategy {
	case OrChain:
		terms := make([]expr.Expr, len(sels))
		for i, s := range sels {
			terms[i] = expr.Cmp{Op: expr.EQ, L: col, R: expr.Const{V: s.Value}}
		}
		pred = expr.Or{Terms: terms}
	case HashSet:
		vals := make([]expr.Value, len(sels))
		for i, s := range sels {
			vals[i] = s.Value
		}
		pred = expr.NewInHash(col, vals)
	default:
		return nil, fmt.Errorf("mqo: unknown merge strategy %d", int(strategy))
	}
	p, err := plan.LowerScan(sels[0].Table, pred)
	if err != nil {
		return nil, err
	}
	return &Merged{Plan: p, Selections: sels, Strategy: strategy}, nil
}

// SplitCostPerRowPerProbe is the client-side cycles to test one result row
// against one query's predicate during result splitting.
const SplitCostPerRowPerProbe = 9

// Splitter incrementally routes merged-result batches back to their
// original queries as they arrive off the engine, reading the selection
// column in place. The paper performs this in application logic and
// includes its time and energy cost; the caller charges the accumulated
// cycles to the machine.
type Splitter struct {
	m *Merged
	// slot maps each distinct selection constant to its counter in hits:
	// queries sharing a constant share the slot, so each sees every row.
	slot   map[expr.Value]int
	hits   []int64
	cycles float64
}

// NewSplitter returns a splitter for the merged batch.
func (m *Merged) NewSplitter() *Splitter {
	slot := make(map[expr.Value]int, len(m.Selections))
	for _, s := range m.Selections {
		if _, ok := slot[s.Value]; !ok {
			slot[s.Value] = len(slot)
		}
	}
	return &Splitter{m: m, slot: slot, hits: make([]int64, len(slot))}
}

// Add routes one batch of merged-result rows.
func (s *Splitter) Add(b *expr.Batch) {
	// A real client routes on the selection column's value; with equality
	// predicates a map gives the destination directly, but the probe cost
	// still scales with how the client organizes the split. Charge the
	// map-based cost for HashSet merges and the linear scan cost for
	// OrChain merges, mirroring the server-side strategy.
	n := b.Len()
	switch s.m.Strategy {
	case HashSet:
		s.cycles += 2 * SplitCostPerRowPerProbe * float64(n)
	default:
		// Linear routing: on average half the predicates are tested.
		s.cycles += float64(len(s.m.Selections)) / 2 * SplitCostPerRowPerProbe * float64(n)
	}
	vec := &b.Cols[s.m.Selections[0].Col]
	for li := 0; li < n; li++ {
		if k, ok := s.slot[vec.Get(b.RowIdx(li))]; ok {
			s.hits[k]++
		}
	}
}

// Finish returns each original query's row count (in input order) and the
// client-side CPU cycles the split consumed.
func (s *Splitter) Finish() (counts []int64, clientCycles float64) {
	counts = make([]int64, len(s.m.Selections))
	for i, sel := range s.m.Selections {
		counts[i] = s.hits[s.slot[sel.Value]]
	}
	return counts, s.cycles
}
