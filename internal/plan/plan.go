// Package plan defines logical query plans for the simulated engine:
// scans, filters, hash joins, aggregation, projection, sorting and limits —
// the operator set TPC-H Q5 and the paper's selection workloads need.
// Plans are built programmatically (the engines under study are driven via
// prepared statements in the paper; ecoDB's public API mirrors that).
package plan

import (
	"fmt"
	"strings"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

// Node is a logical plan operator.
type Node interface {
	// Schema describes the node's output rows.
	Schema() *catalog.Schema
	// Children returns input operators, build/left side first.
	Children() []Node
	// Describe returns a one-line operator description (without inputs).
	Describe() string

	// stamp returns the slot Lower records a root's origin in.
	stamp() *lineage
}

// Origin is where a lowered plan came from: the logical plan and the
// physical choices Logical.Lower applied, with a nil join order or build
// side list filled from the logical plan's defaults. The logical plan is
// shared by everything built from it and is never written after Lower.
type Origin struct {
	Logical *Logical
	Choices PhysChoices
}

// lineage is embedded once in every node type. Lower stamps the root it
// returns; every other node, and every node built directly, has none.
type lineage struct{ origin *Origin }

func (l *lineage) stamp() *lineage { return l }

// OriginOf returns the logical plan and choices n was lowered from, or nil
// when n is not the root of a tree Logical.Lower returned. It runs once per
// optimized statement, usually on a plan a scan has just evicted from
// cache, so it reads the field through a type switch rather than an
// indirect call to stamp. Every node type has a case.
func OriginOf(n Node) *Origin {
	switch v := n.(type) {
	case *Scan:
		return v.origin
	case *Filter:
		return v.origin
	case *HashJoin:
		return v.origin
	case *Project:
		return v.origin
	case *Agg:
		return v.origin
	case *Sort:
		return v.origin
	case *Limit:
		return v.origin
	}
	return nil
}

// Scan reads every row of a table, optionally filtering. The paper's
// setups build no indices, so scans are the only access path.
type Scan struct {
	lineage
	Table  *catalog.Table
	Filter expr.Expr // optional
}

// NewScan returns a scan of t with an optional filter.
func NewScan(t *catalog.Table, filter expr.Expr) *Scan {
	return &Scan{Table: t, Filter: filter}
}

// Schema implements Node.
func (s *Scan) Schema() *catalog.Schema { return s.Table.Schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	if s.Filter != nil {
		return fmt.Sprintf("Scan(%s, filter=%s)", s.Table.Name, s.Filter)
	}
	return fmt.Sprintf("Scan(%s)", s.Table.Name)
}

// Filter drops rows not satisfying the predicate.
type Filter struct {
	lineage
	Input Node
	Pred  expr.Expr
}

// NewFilter wraps input with a predicate.
func NewFilter(input Node, pred expr.Expr) *Filter {
	return &Filter{Input: input, Pred: pred}
}

// Schema implements Node.
func (f *Filter) Schema() *catalog.Schema { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Filter) Describe() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// HashJoin equi-joins Build and Probe on single-column keys, with an
// optional residual predicate evaluated on the concatenated row (Build
// columns first). Output rows are buildRow ++ probeRow.
type HashJoin struct {
	lineage
	Build, Probe       Node
	BuildKey, ProbeKey int // column positions in the respective schemas
	Residual           expr.Expr
	schema             *catalog.Schema
}

// NewHashJoin builds a hash equi-join node. Key positions must be valid
// for the input schemas; violations panic at plan-construction time.
func NewHashJoin(build, probe Node, buildKey, probeKey int, residual expr.Expr) *HashJoin {
	if buildKey < 0 || buildKey >= build.Schema().NumCols() {
		panic(fmt.Sprintf("plan: build key %d out of range", buildKey))
	}
	if probeKey < 0 || probeKey >= probe.Schema().NumCols() {
		panic(fmt.Sprintf("plan: probe key %d out of range", probeKey))
	}
	return &HashJoin{
		Build: build, Probe: probe,
		BuildKey: buildKey, ProbeKey: probeKey,
		Residual: residual,
		schema:   catalog.Concat(build.Schema(), probe.Schema()),
	}
}

// Schema implements Node.
func (j *HashJoin) Schema() *catalog.Schema { return j.schema }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Build, j.Probe} }

// Describe implements Node.
func (j *HashJoin) Describe() string {
	d := fmt.Sprintf("HashJoin(build.%s = probe.%s",
		j.Build.Schema().Columns()[j.BuildKey].Name,
		j.Probe.Schema().Columns()[j.ProbeKey].Name)
	if j.Residual != nil {
		d += fmt.Sprintf(", residual=%s", j.Residual)
	}
	return d + ")"
}

// Project computes output expressions.
type Project struct {
	lineage
	Input  Node
	Exprs  []expr.Expr
	Names  []string
	Kinds  []expr.Kind
	schema *catalog.Schema
}

// NewProject builds a projection; Names/Kinds give the output schema.
func NewProject(input Node, exprs []expr.Expr, names []string, kinds []expr.Kind) *Project {
	if len(exprs) != len(names) || len(exprs) != len(kinds) {
		panic("plan: projection exprs/names/kinds length mismatch")
	}
	cols := make([]catalog.Column, len(exprs))
	for i := range exprs {
		cols[i] = catalog.Column{Name: names[i], Kind: kinds[i]}
	}
	return &Project{Input: input, Exprs: exprs, Names: names, Kinds: kinds,
		schema: catalog.NewSchema(cols...)}
}

// Schema implements Node.
func (p *Project) Schema() *catalog.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, p.Names[i])
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	return [...]string{"sum", "count", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // ignored for Count
	Name string
}

// Agg groups by column positions and computes aggregates. Output columns
// are the group-by columns followed by the aggregates.
type Agg struct {
	lineage
	Input   Node
	GroupBy []int
	Aggs    []AggSpec
	schema  *catalog.Schema
}

// NewAgg builds a hash aggregation node.
func NewAgg(input Node, groupBy []int, aggs []AggSpec) *Agg {
	in := input.Schema()
	cols := make([]catalog.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		cols = append(cols, in.Columns()[g])
	}
	for _, a := range aggs {
		kind := expr.KindFloat
		if a.Func == Count {
			kind = expr.KindInt
		}
		cols = append(cols, catalog.Column{Name: a.Name, Kind: kind})
	}
	return &Agg{Input: input, GroupBy: groupBy, Aggs: aggs, schema: catalog.NewSchema(cols...)}
}

// Schema implements Node.
func (a *Agg) Schema() *catalog.Schema { return a.schema }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *Agg) Describe() string {
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = a.Input.Schema().Columns()[g].Name
	}
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Func == Count {
			aggs[i] = "count(*)"
		} else {
			aggs[i] = fmt.Sprintf("%s(%s)", s.Func, s.Arg)
		}
	}
	return fmt.Sprintf("Agg(by=[%s], aggs=[%s])",
		strings.Join(groups, ","), strings.Join(aggs, ","))
}

// SortKey orders by one output column.
type SortKey = expr.SortKey

// Sort orders its input. Keys compare with expr.Compare semantics (NULLs
// smallest, so ASC puts them first and DESC last); ties keep input order.
// When the input is a morsel-eligible scan→filter→project fragment,
// CompileParallel lowers Sort to worker-side sorted-run generation with a
// loser-tree merge; output, simulated durations, and joules stay
// bit-identical to the serial operator at any worker count.
type Sort struct {
	lineage
	Input Node
	Keys  []SortKey
}

// NewSort builds a sort node.
func NewSort(input Node, keys ...SortKey) *Sort {
	return &Sort{Input: input, Keys: keys}
}

// Schema implements Node.
func (s *Sort) Schema() *catalog.Schema { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%s %s", s.Input.Schema().Columns()[k.Col].Name, dir)
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Limit passes through at most N rows. The executor completes the scan
// (realistic without indices) but emits only the first N; a Sort directly
// beneath is told N and keeps only its first N rows, still consuming — and
// charging for — its whole input.
type Limit struct {
	lineage
	Input Node
	N     int
}

// NewLimit builds a limit node.
func NewLimit(input Node, n int) *Limit { return &Limit{Input: input, N: n} }

// Schema implements Node.
func (l *Limit) Schema() *catalog.Schema { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Format renders a plan tree indented, one operator per line.
func Format(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
