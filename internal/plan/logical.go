package plan

import (
	"fmt"
	"strings"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
)

// This file is the logical half of the planner: a bound relational-algebra
// description of a query over a *global column space* — the concatenation
// of every FROM table's columns in declaration order — separated from the
// physical decisions (join order, build sides, pushdown depth, access
// path) that Lower applies to produce an executable Node tree. Binding and
// validation happen here, against (table, column) pairs, so front ends
// (sql, the tpch and mqo builders) only translate syntax. Planning runs one
// way: a front end builds a Logical, Lower turns it into a tree, and the
// tree's root remembers the Logical it came from.

// TableSet is a bitmask over a Logical plan's table positions.
type TableSet uint64

// MaxTables bounds the FROM list so TableSet fits one word.
const MaxTables = 64

// With returns the set with table i added.
func (s TableSet) With(i int) TableSet { return s | 1<<uint(i) }

// Has reports membership of table i.
func (s TableSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// SubsetOf reports whether every member of s is in t.
func (s TableSet) SubsetOf(t TableSet) bool { return s&^t == 0 }

// Count returns the number of member tables.
func (s TableSet) Count() int {
	n := 0
	for ; s != 0; s &= s - 1 {
		n++
	}
	return n
}

// Conjunct is one bound predicate conjunct over the global column space,
// annotated with the tables it touches and, when it has the shape
// col = col across two different tables, the equi-join columns — the edges
// the optimizer's join enumeration walks.
type Conjunct struct {
	Pred   expr.Expr
	Tables TableSet
	// EquiJoin marks Pred as exactly Col(a) = Col(b) with a and b in
	// different tables; LeftCol/RightCol are their global column ids.
	EquiJoin          bool
	LeftCol, RightCol int
}

// AggQuery describes grouping and aggregation: group-by columns as global
// ids, aggregate arguments as expressions over the global space. Output
// columns are the groups followed by the aggregates, as Agg emits them.
type AggQuery struct {
	GroupBy []int
	Specs   []AggSpec
}

// ProjectSpec describes the output expressions. For a plain query they are
// bound over the global column space; when the query aggregates they are
// bound over the aggregate's output schema (groups then aggregates), whose
// positions do not depend on physical join shape.
type ProjectSpec struct {
	Exprs []expr.Expr
	Names []string
	Kinds []expr.Kind
}

// Logical is a bound logical query: which tables, which predicate
// conjuncts, and what shape of aggregation/projection/ordering — nothing
// about join order, build sides, pushdown or access paths. Sort keys are
// positions in the output schema, which is physical-shape invariant.
type Logical struct {
	Tables    []*catalog.Table
	Conjuncts []Conjunct
	Agg       *AggQuery
	Project   *ProjectSpec // nil: emit the global column space (or Agg output) as is
	Sort      []SortKey
	Limit     int // -1: no limit

	offsets []int // global id of each table's first column
}

// NewLogical starts a logical plan over the given FROM tables.
func NewLogical(tables []*catalog.Table) (*Logical, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("plan: logical plan needs at least one table")
	}
	if len(tables) > MaxTables {
		return nil, fmt.Errorf("plan: %d tables exceeds the %d-table limit", len(tables), MaxTables)
	}
	lg := &Logical{Tables: tables, Limit: -1, offsets: make([]int, len(tables))}
	off := 0
	for i, t := range tables {
		lg.offsets[i] = off
		off += t.Schema.NumCols()
	}
	return lg, nil
}

// NumCols returns the width of the global column space.
func (lg *Logical) NumCols() int {
	last := len(lg.Tables) - 1
	return lg.offsets[last] + lg.Tables[last].Schema.NumCols()
}

// ColOffset returns the global id of table t's first column.
func (lg *Logical) ColOffset(t int) int { return lg.offsets[t] }

// TableOf returns which table a global column id belongs to.
func (lg *Logical) TableOf(g int) int {
	for t := len(lg.offsets) - 1; t >= 0; t-- {
		if g >= lg.offsets[t] {
			return t
		}
	}
	panic(fmt.Sprintf("plan: global column %d out of range", g))
}

// ColName returns the base-table column name of a global id.
func (lg *Logical) ColName(g int) string {
	t := lg.TableOf(g)
	return lg.Tables[t].Schema.Columns()[g-lg.offsets[t]].Name
}

// ColKind returns the base-table column kind of a global id.
func (lg *Logical) ColKind(g int) expr.Kind {
	t := lg.TableOf(g)
	return lg.Tables[t].Schema.Columns()[g-lg.offsets[t]].Kind
}

// Resolve binds a (table, column) reference to a global column id. An
// empty table name searches all tables and reports ambiguity — the
// validation that used to live in sql's scope machinery.
func (lg *Logical) Resolve(table, column string) (int, error) {
	if table != "" {
		for i, t := range lg.Tables {
			if t.Name == table {
				if idx, ok := t.Schema.Index(column); ok {
					return lg.offsets[i] + idx, nil
				}
				return 0, fmt.Errorf("plan: table %q has no column %q", table, column)
			}
		}
		return 0, fmt.Errorf("plan: no table %q in FROM", table)
	}
	found := -1
	for i, t := range lg.Tables {
		if idx, ok := t.Schema.Index(column); ok {
			if found >= 0 {
				return 0, fmt.Errorf("plan: column %q is ambiguous", column)
			}
			found = lg.offsets[i] + idx
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", column)
	}
	return found, nil
}

// AddPredicate analyzes one bound conjunct (columns are global ids) and
// records it: which tables it touches, and whether it is an equi-join
// edge. Column ids out of range are a binding bug and error out here.
func (lg *Logical) AddPredicate(pred expr.Expr) error {
	cols := ExprCols(pred)
	var set TableSet
	for _, g := range cols {
		if g < 0 || g >= lg.NumCols() {
			return fmt.Errorf("plan: predicate %s references column %d outside the global space", pred, g)
		}
		set = set.With(lg.TableOf(g))
	}
	c := Conjunct{Pred: pred, Tables: set}
	if cmp, ok := pred.(expr.Cmp); ok && cmp.Op == expr.EQ {
		l, lok := cmp.L.(expr.Col)
		r, rok := cmp.R.(expr.Col)
		if lok && rok && lg.TableOf(l.Idx) != lg.TableOf(r.Idx) {
			c.EquiJoin = true
			c.LeftCol, c.RightCol = l.Idx, r.Idx
		}
	}
	lg.Conjuncts = append(lg.Conjuncts, c)
	return nil
}

// SetAgg installs grouping and aggregation, validating global column ids.
func (lg *Logical) SetAgg(groupBy []int, specs []AggSpec) error {
	for _, g := range groupBy {
		if g < 0 || g >= lg.NumCols() {
			return fmt.Errorf("plan: group-by column %d outside the global space", g)
		}
	}
	for _, s := range specs {
		if s.Arg == nil && s.Func != Count {
			return fmt.Errorf("plan: aggregate %s needs an argument", s.Func)
		}
	}
	lg.Agg = &AggQuery{GroupBy: groupBy, Specs: specs}
	return nil
}

// OutputSchema returns the query's result schema — stable across every
// physical lowering, which is what makes Sort positions and golden results
// meaningful independent of the optimizer's choices.
func (lg *Logical) OutputSchema() *catalog.Schema {
	if lg.Project != nil {
		cols := make([]catalog.Column, len(lg.Project.Exprs))
		for i := range cols {
			cols[i] = catalog.Column{Name: lg.Project.Names[i], Kind: lg.Project.Kinds[i]}
		}
		return catalog.NewSchema(cols...)
	}
	if lg.Agg != nil {
		cols := make([]catalog.Column, 0, len(lg.Agg.GroupBy)+len(lg.Agg.Specs))
		for _, g := range lg.Agg.GroupBy {
			cols = append(cols, catalog.Column{Name: lg.ColName(g), Kind: lg.ColKind(g)})
		}
		for _, s := range lg.Agg.Specs {
			kind := expr.KindFloat
			if s.Func == Count {
				kind = expr.KindInt
			}
			cols = append(cols, catalog.Column{Name: s.Name, Kind: kind})
		}
		return catalog.NewSchema(cols...)
	}
	return qualifySchema(lg.globalColumns())
}

// globalColumns lists the global column space as catalog columns.
func (lg *Logical) globalColumns() []catalog.Column {
	cols := make([]catalog.Column, 0, lg.NumCols())
	for _, t := range lg.Tables {
		cols = append(cols, t.Schema.Columns()...)
	}
	return cols
}

// qualifySchema builds a schema from columns, renaming duplicates the way
// catalog.Concat does so star results over self-named tables stay legal.
func qualifySchema(cols []catalog.Column) *catalog.Schema {
	seen := make(map[string]int)
	out := make([]catalog.Column, len(cols))
	copy(out, cols)
	for i := range out {
		n := out[i].Name
		seen[n]++
		if seen[n] > 1 {
			out[i].Name = fmt.Sprintf("%s_%d", n, seen[n])
		}
	}
	return catalog.NewSchema(out...)
}

// Pushdown selects how deep single-table conjuncts are pushed.
type Pushdown int

const (
	// PushdownBase pushes only the first-ordered table's conjuncts into
	// its scan — the legacy front-end shape.
	PushdownBase Pushdown = iota
	// PushdownAll pushes every single-table conjunct into its scan.
	PushdownAll
)

func (p Pushdown) String() string {
	if p == PushdownAll {
		return "all"
	}
	return "base"
}

// PhysChoices is one point in the physical plan space: the decisions the
// optimizer makes and Lower mechanically applies. Access path (private vs
// shared scan) and parallelism degree are execution-time concerns carried
// by opt's result, not plan structure.
type PhysChoices struct {
	// JoinOrder is a permutation of table positions; nil keeps FROM order.
	JoinOrder []int
	// BuildLeft[i] controls join step i (which adds JoinOrder[i+1]): true
	// builds the accumulated left side and probes the new table, false
	// builds the new table and probes the accumulated stream.
	BuildLeft []bool
	// Pushdown selects predicate pushdown depth.
	Pushdown Pushdown
}

// DefaultChoices reproduces the hand-lowered shape: FROM-order left-deep
// joins, accumulated side as build, full pushdown.
func (lg *Logical) DefaultChoices() PhysChoices {
	order := make([]int, len(lg.Tables))
	for i := range order {
		order[i] = i
	}
	bl := make([]bool, max(len(lg.Tables)-1, 0))
	for i := range bl {
		bl[i] = true
	}
	return PhysChoices{JoinOrder: order, BuildLeft: bl, Pushdown: PushdownAll}
}

// Lower produces the physical operator tree for one choice of join order,
// build sides and pushdown depth. Join keys come from the logical equi-join
// conjuncts; every other conjunct lands at the earliest operator whose
// inputs cover it (scan filter, join residual, or — defensively — a Filter).
// The result's output schema equals OutputSchema regardless of choices.
// The root carries its origin (OriginOf): lg and ch, with a nil join order
// or build side list filled from DefaultChoices; the origin shares ch's
// slices, so the caller must not modify them afterwards.
func (lg *Logical) Lower(ch PhysChoices) (Node, error) {
	order := ch.JoinOrder
	if order == nil {
		order = lg.DefaultChoices().JoinOrder
	}
	if len(order) != len(lg.Tables) {
		return nil, fmt.Errorf("plan: join order has %d entries for %d tables", len(order), len(lg.Tables))
	}
	buildLeft := ch.BuildLeft
	if buildLeft == nil {
		buildLeft = lg.DefaultChoices().BuildLeft
	}
	if len(buildLeft) != len(lg.Tables)-1 {
		return nil, fmt.Errorf("plan: build sides have %d entries for %d joins", len(buildLeft), len(lg.Tables)-1)
	}

	placed := make([]bool, len(lg.Conjuncts))

	// scanOf builds table t's leaf, absorbing its single-table conjuncts
	// when the pushdown depth allows.
	scanOf := func(t int, push bool) *Scan {
		var pred expr.Expr
		if push {
			only := TableSet(0).With(t)
			for i, c := range lg.Conjuncts {
				if placed[i] || c.Tables != only {
					continue
				}
				pred = andExpr(pred, RemapExpr(c.Pred, func(g int) int { return g - lg.offsets[t] }))
				placed[i] = true
			}
		}
		return NewScan(lg.Tables[t], pred)
	}

	t0 := order[0]
	var cur Node = scanOf(t0, true)
	curMap := lg.tableGlobals(t0)
	curSet := TableSet(0).With(t0)

	for step, ti := range order[1:] {
		t := ti
		leaf := scanOf(t, ch.Pushdown == PushdownAll)
		newSet := curSet.With(t)

		// Hash keys: the first unplaced equi-join edge between the
		// accumulated set and the new table.
		keyIdx := -1
		var gCur, gNew int
		for i, c := range lg.Conjuncts {
			if placed[i] || !c.EquiJoin {
				continue
			}
			lt, rt := lg.TableOf(c.LeftCol), lg.TableOf(c.RightCol)
			switch {
			case curSet.Has(lt) && rt == t:
				keyIdx, gCur, gNew = i, c.LeftCol, c.RightCol
			case curSet.Has(rt) && lt == t:
				keyIdx, gCur, gNew = i, c.RightCol, c.LeftCol
			}
			if keyIdx >= 0 {
				break
			}
		}
		if keyIdx < 0 {
			return nil, fmt.Errorf("plan: no equality joins %s to the preceding tables", lg.Tables[t].Name)
		}
		placed[keyIdx] = true

		var build, probe Node
		var buildKey, probeKey int
		var newMap []int
		if buildLeft[step] {
			build, probe = cur, leaf
			buildKey = indexOfGlobal(curMap, gCur)
			probeKey = gNew - lg.offsets[t]
			newMap = append(append([]int{}, curMap...), lg.tableGlobals(t)...)
		} else {
			build, probe = leaf, cur
			buildKey = gNew - lg.offsets[t]
			probeKey = indexOfGlobal(curMap, gCur)
			newMap = append(lg.tableGlobals(t), curMap...)
		}

		// Residual: every remaining conjunct whose tables are now covered.
		var residual expr.Expr
		for i, c := range lg.Conjuncts {
			if placed[i] || !c.Tables.SubsetOf(newSet) {
				continue
			}
			residual = andExpr(residual, RemapExpr(c.Pred, func(g int) int { return indexOfGlobal(newMap, g) }))
			placed[i] = true
		}

		cur = NewHashJoin(build, probe, buildKey, probeKey, residual)
		curMap, curSet = newMap, newSet
	}

	// Defensive: anything unplaced (single-table queries push everything,
	// so this only fires on malformed conjunct sets) becomes a Filter.
	for i, c := range lg.Conjuncts {
		if placed[i] {
			continue
		}
		cur = NewFilter(cur, RemapExpr(c.Pred, func(g int) int { return indexOfGlobal(curMap, g) }))
		placed[i] = true
	}

	if lg.Agg != nil {
		groups := make([]int, len(lg.Agg.GroupBy))
		for i, g := range lg.Agg.GroupBy {
			groups[i] = indexOfGlobal(curMap, g)
		}
		specs := make([]AggSpec, len(lg.Agg.Specs))
		for i, s := range lg.Agg.Specs {
			specs[i] = s
			if s.Arg != nil {
				specs[i].Arg = RemapExpr(s.Arg, func(g int) int { return indexOfGlobal(curMap, g) })
			}
		}
		cur = NewAgg(cur, groups, specs)
	}

	switch {
	case lg.Project != nil && lg.Agg != nil:
		// Projection over the aggregate's output: positions are already
		// physical-shape invariant.
		cur = NewProject(cur, lg.Project.Exprs, lg.Project.Names, lg.Project.Kinds)
	case lg.Project != nil:
		exprs := make([]expr.Expr, len(lg.Project.Exprs))
		for i, e := range lg.Project.Exprs {
			exprs[i] = RemapExpr(e, func(g int) int { return indexOfGlobal(curMap, g) })
		}
		cur = NewProject(cur, exprs, lg.Project.Names, lg.Project.Kinds)
	case lg.Agg == nil:
		// Star output: restore global column order when the physical
		// shape shuffled it, so results are lowering-invariant.
		if !isIdentity(curMap) {
			out := lg.OutputSchema()
			exprs := make([]expr.Expr, lg.NumCols())
			names := make([]string, lg.NumCols())
			kinds := make([]expr.Kind, lg.NumCols())
			for g := 0; g < lg.NumCols(); g++ {
				exprs[g] = expr.Col{Idx: indexOfGlobal(curMap, g), Name: lg.ColName(g)}
				names[g] = out.Columns()[g].Name
				kinds[g] = out.Columns()[g].Kind
			}
			cur = NewProject(cur, exprs, names, kinds)
		}
	}

	for _, k := range lg.Sort {
		if k.Col < 0 || k.Col >= cur.Schema().NumCols() {
			return nil, fmt.Errorf("plan: sort key %d outside the output schema", k.Col)
		}
	}
	if len(lg.Sort) > 0 {
		cur = NewSort(cur, lg.Sort...)
	}
	if lg.Limit >= 0 {
		cur = NewLimit(cur, lg.Limit)
	}
	cur.stamp().origin = &Origin{
		Logical: lg,
		Choices: PhysChoices{JoinOrder: order, BuildLeft: buildLeft, Pushdown: ch.Pushdown},
	}
	return cur, nil
}

// LowerScan lowers a scan of t, filtered by pred when it is not nil, through
// a one-table Logical, so the scan carries its origin. pred is one conjunct
// over t's own columns.
func LowerScan(t *catalog.Table, pred expr.Expr) (Node, error) {
	lg, err := NewLogical([]*catalog.Table{t})
	if err != nil {
		return nil, err
	}
	if pred != nil {
		if err := lg.AddPredicate(pred); err != nil {
			return nil, err
		}
	}
	return lg.Lower(lg.DefaultChoices())
}

// tableGlobals lists table t's global column ids in order.
func (lg *Logical) tableGlobals(t int) []int {
	n := lg.Tables[t].Schema.NumCols()
	out := make([]int, n)
	for i := range out {
		out[i] = lg.offsets[t] + i
	}
	return out
}

func indexOfGlobal(m []int, g int) int {
	for i, v := range m {
		if v == g {
			return i
		}
	}
	panic(fmt.Sprintf("plan: global column %d not in scope during lowering", g))
}

func isIdentity(m []int) bool {
	for i, v := range m {
		if i != v {
			return false
		}
	}
	return true
}

func andExpr(acc, e expr.Expr) expr.Expr {
	if acc == nil {
		return e
	}
	if a, ok := acc.(expr.And); ok {
		return expr.And{Terms: append(append([]expr.Expr{}, a.Terms...), e)}
	}
	return expr.And{Terms: []expr.Expr{acc, e}}
}

// Describe summarizes the logical plan for diagnostics.
func (lg *Logical) Describe() string {
	var b strings.Builder
	names := make([]string, len(lg.Tables))
	for i, t := range lg.Tables {
		names[i] = t.Name
	}
	fmt.Fprintf(&b, "Logical(%s", strings.Join(names, " ⨝ "))
	if n := len(lg.Conjuncts); n > 0 {
		fmt.Fprintf(&b, ", %d conjuncts", n)
	}
	if lg.Agg != nil {
		fmt.Fprintf(&b, ", agg[%d groups, %d aggs]", len(lg.Agg.GroupBy), len(lg.Agg.Specs))
	}
	if lg.Project != nil {
		fmt.Fprintf(&b, ", project[%d]", len(lg.Project.Exprs))
	}
	if len(lg.Sort) > 0 {
		fmt.Fprintf(&b, ", sort[%d]", len(lg.Sort))
	}
	if lg.Limit >= 0 {
		fmt.Fprintf(&b, ", limit %d", lg.Limit)
	}
	b.WriteString(")")
	return b.String()
}

// ExprCols returns the column positions an expression references.
func ExprCols(e expr.Expr) []int {
	var out []int
	WalkCols(e, func(idx int) { out = append(out, idx) })
	return out
}

// WalkCols visits every column reference in an expression.
func WalkCols(e expr.Expr, f func(idx int)) {
	switch n := e.(type) {
	case expr.Col:
		f(n.Idx)
	case expr.Const:
	case expr.Cmp:
		WalkCols(n.L, f)
		WalkCols(n.R, f)
	case expr.Between:
		WalkCols(n.E, f)
	case expr.And:
		for _, t := range n.Terms {
			WalkCols(t, f)
		}
	case expr.Or:
		for _, t := range n.Terms {
			WalkCols(t, f)
		}
	case expr.Not:
		WalkCols(n.E, f)
	case *expr.InHash:
		WalkCols(n.E, f)
	case expr.Arith:
		WalkCols(n.L, f)
		WalkCols(n.R, f)
	default:
		panic(fmt.Sprintf("plan: cannot walk expression %T", e))
	}
}

// RemapExpr rewrites an expression's column positions through f, leaving
// the original untouched.
func RemapExpr(e expr.Expr, f func(int) int) expr.Expr {
	switch n := e.(type) {
	case expr.Col:
		return expr.Col{Idx: f(n.Idx), Name: n.Name}
	case expr.Const:
		return n
	case expr.Cmp:
		return expr.Cmp{Op: n.Op, L: RemapExpr(n.L, f), R: RemapExpr(n.R, f)}
	case expr.Between:
		return expr.Between{E: RemapExpr(n.E, f), Lo: n.Lo, Hi: n.Hi}
	case expr.And:
		terms := make([]expr.Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = RemapExpr(t, f)
		}
		return expr.And{Terms: terms}
	case expr.Or:
		terms := make([]expr.Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = RemapExpr(t, f)
		}
		return expr.Or{Terms: terms}
	case expr.Not:
		return expr.Not{E: RemapExpr(n.E, f)}
	case *expr.InHash:
		return &expr.InHash{E: RemapExpr(n.E, f), Set: n.Set, Desc: n.Desc}
	case expr.Arith:
		return expr.Arith{Op: n.Op, L: RemapExpr(n.L, f), R: RemapExpr(n.R, f)}
	default:
		panic(fmt.Sprintf("plan: cannot remap expression %T", e))
	}
}
