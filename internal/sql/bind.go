package sql

import (
	"fmt"
	"math"
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/plan"
)

// The front end is split the way the cdb select planner splits it: this
// file only translates the AST into a bound plan.Logical — name resolution
// and validation live in the plan layer's global column space — and the
// physical shape (join order, build sides, pushdown, access path) is a
// separate lowering step. Plan and Bind lower with the default FROM-order
// choices, and the lowered root remembers the Logical it came from
// (plan.OriginOf): an engine with an objective re-plans the statement from
// that Logical, so EXPLAIN (BindLogical, then opt.Optimize) and EXPLAIN
// ANALYZE cost the statement as it was bound.

// Plan parses a SELECT statement and lowers it onto the catalog's tables
// with the default physical choices: left-deep hash joins in FROM order,
// accumulated side as build, single-table predicates pushed into scans.
func Plan(cat *catalog.Catalog, query string) (plan.Node, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Bind(cat, stmt)
}

// Bind lowers a parsed statement onto the catalog with default choices.
func Bind(cat *catalog.Catalog, stmt *SelectStmt) (plan.Node, error) {
	if stmt.Explain {
		return nil, fmt.Errorf("sql: EXPLAIN statements are not executable; render them with sql.Explain")
	}
	lg, err := BindLogical(cat, stmt)
	if err != nil {
		return nil, err
	}
	return lg.Lower(lg.DefaultChoices())
}

// BindLogical binds a parsed statement to a logical plan: tables resolved,
// every WHERE and ON conjunct bound over the global column space with
// equi-join edges identified, aggregation/projection/ordering validated.
// ON conjuncts may reference any table declared up to and including their
// join; multi-condition ON clauses bind in full — one equality becomes the
// hash-join edge at lowering time and the rest evaluate as residuals, with
// qualified references resolving against base tables (not the renamed join
// schema) and ambiguous unqualified references rejected.
func BindLogical(cat *catalog.Catalog, stmt *SelectStmt) (*plan.Logical, error) {
	tables := make([]*catalog.Table, 0, 1+len(stmt.Joins))
	seen := make(map[string]bool)
	addTable := func(ref TableRef) error {
		t, err := cat.Table(ref.Name)
		if err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("sql: table %q appears twice in FROM (aliases are not supported)", t.Name)
		}
		seen[t.Name] = true
		tables = append(tables, t)
		return nil
	}
	if err := addTable(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}
	lg, err := plan.NewLogical(tables)
	if err != nil {
		return nil, err
	}

	// Predicates: WHERE sees every table; the i-th join's ON clause sees
	// tables declared up to and including it.
	bindConjuncts := func(n Node, visibleTables int) error {
		sc := &scope{lg: lg, tables: visibleTables}
		for _, c := range splitConjuncts(n) {
			bound, err := bindExpr(c, sc)
			if err != nil {
				return err
			}
			if err := checkJoinKey(lg, bound); err != nil {
				return err
			}
			if err := lg.AddPredicate(bound); err != nil {
				return err
			}
		}
		return nil
	}
	for i, j := range stmt.Joins {
		if err := bindConjuncts(j.On, i+2); err != nil {
			return nil, err
		}
	}
	if err := bindConjuncts(stmt.Where, len(tables)); err != nil {
		return nil, err
	}

	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	fullScope := &scope{lg: lg, tables: len(tables)}
	switch {
	case hasAgg:
		if err := bindAgg(stmt, lg, fullScope); err != nil {
			return nil, err
		}
	case !isStar(stmt.Items):
		if err := bindProject(stmt.Items, lg, fullScope); err != nil {
			return nil, err
		}
	}

	// ORDER BY over the output schema: by output name, or — for star
	// queries, where output positions are the global column space — by
	// qualified base-table reference. A name two select items carry for
	// different values is ambiguous.
	out := lg.OutputSchema()
	for _, o := range stmt.OrderBy {
		col, ok := o.Expr.(ColRef)
		if !ok {
			return nil, fmt.Errorf("sql: ORDER BY supports column references only, got %s", o.Expr)
		}
		if col.Table == "" && lg.Project != nil {
			if err := checkOrderByName(lg.Project, col.Name); err != nil {
				return nil, err
			}
		}
		idx, found := out.Index(col.Name)
		if col.Table != "" || !found {
			if lg.Project != nil || lg.Agg != nil {
				return nil, fmt.Errorf("sql: unknown ORDER BY column %q", col)
			}
			g, err := lg.Resolve(col.Table, col.Name)
			if err != nil {
				return nil, fmt.Errorf("sql: unknown ORDER BY column %q", col)
			}
			idx = g
		}
		lg.Sort = append(lg.Sort, plan.SortKey{Col: idx, Desc: o.Desc})
	}

	lg.Limit = stmt.Limit
	return lg, nil
}

// checkOrderByName refuses an ORDER BY name that two select items carry
// unless both are the same column: SELECT n_name AS x, n_regionkey AS x
// cannot be ordered by x, SELECT n_name, n_name can be ordered by n_name.
func checkOrderByName(p *plan.ProjectSpec, name string) error {
	first := -1
	for i, n := range p.Names {
		if n != name {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		a, aCol := p.Exprs[first].(expr.Col)
		b, bCol := p.Exprs[i].(expr.Col)
		if !aCol || !bCol || a.Idx != b.Idx {
			return fmt.Errorf("sql: ORDER BY %q is ambiguous: select items %d and %d both carry it", name, first+1, i+1)
		}
	}
	return nil
}

func isStar(items []SelectItem) bool {
	return len(items) == 1 && items[0].Star
}

// scope adapts the logical plan's resolver to the binder, restricting
// visibility to the first tables of the FROM list (SQL's left-to-right ON
// scoping).
type scope struct {
	lg     *plan.Logical
	tables int
}

// kind returns the kind of a bound expression's values.
func (s *scope) kind(e expr.Expr) expr.Kind { return expr.KindOf(e, s.lg.ColKind) }

func (s *scope) resolve(c ColRef) (int, error) {
	g, err := s.lg.Resolve(c.Table, c.Name)
	if err != nil {
		return 0, fmt.Errorf("sql: %s", unknownColumn(c, err))
	}
	if s.lg.TableOf(g) >= s.tables {
		return 0, fmt.Errorf("sql: column %q is not visible here (its table joins later)", c)
	}
	return g, nil
}

// unknownColumn keeps the front end's error vocabulary while the plan
// layer does the resolving.
func unknownColumn(c ColRef, err error) string {
	return fmt.Sprintf("unknown column %q: %v", c.String(), err)
}

// bindAgg binds GROUP BY plus aggregate select items, installing the
// aggregation and the select-list-order projection over its output.
func bindAgg(stmt *SelectStmt, lg *plan.Logical, sc *scope) error {
	var groupIdx []int
	for _, g := range stmt.GroupBy {
		idx, err := sc.resolve(g)
		if err != nil {
			return err
		}
		groupIdx = append(groupIdx, idx)
	}

	var specs []plan.AggSpec
	// Projection over the aggregate output (groups..., aggs...), in
	// select-list order with aliases applied.
	exprs := make([]expr.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	kinds := make([]expr.Kind, len(stmt.Items))
	for i, it := range stmt.Items {
		switch {
		case it.Star:
			return fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
		case it.Agg != "":
			name := it.Alias
			if name == "" {
				name = fmt.Sprintf("%s_%d", toLower(it.Agg), i+1)
			}
			spec := plan.AggSpec{Name: name}
			switch it.Agg {
			case "SUM":
				spec.Func = plan.Sum
			case "COUNT":
				spec.Func = plan.Count
			case "MIN":
				spec.Func = plan.Min
			case "MAX":
				spec.Func = plan.Max
			case "AVG":
				spec.Func = plan.Avg
			}
			if it.Expr != nil {
				arg, err := bindExpr(it.Expr, sc)
				if err != nil {
					return err
				}
				if k := sc.kind(arg); k == expr.KindString && (spec.Func == plan.Sum || spec.Func == plan.Avg) {
					return fmt.Errorf("sql: %s needs a numeric argument, got %s (%s)", it.Agg, it.Expr, k)
				}
				spec.Arg = arg
			} else if spec.Func != plan.Count {
				return fmt.Errorf("sql: %s requires an argument", it.Agg)
			}
			pos := len(groupIdx) + len(specs)
			specs = append(specs, spec)
			exprs[i] = expr.Col{Idx: pos, Name: name}
			names[i] = name
			kinds[i] = spec.Kind(lg.ColKind)
		default:
			col, ok := it.Expr.(ColRef)
			if !ok {
				return fmt.Errorf("sql: non-aggregate select item %s must be a grouping column", it.Expr)
			}
			idx, err := sc.resolve(col)
			if err != nil {
				return err
			}
			gpos := -1
			for p, g := range groupIdx {
				if g == idx {
					gpos = p
					break
				}
			}
			if gpos < 0 {
				return fmt.Errorf("sql: column %s is not in GROUP BY", col)
			}
			name := it.Alias
			if name == "" {
				name = col.Name
			}
			exprs[i] = expr.Col{Idx: gpos, Name: name}
			names[i] = name
			kinds[i] = lg.ColKind(idx)
		}
	}
	if err := lg.SetAgg(groupIdx, specs); err != nil {
		return err
	}
	lg.Project = &plan.ProjectSpec{Exprs: exprs, Names: names, Kinds: kinds}
	return nil
}

// bindProject binds a plain (non-aggregating) select list over the global
// column space.
func bindProject(items []SelectItem, lg *plan.Logical, sc *scope) error {
	exprs := make([]expr.Expr, len(items))
	names := make([]string, len(items))
	kinds := make([]expr.Kind, len(items))
	for i, it := range items {
		if it.Star {
			return fmt.Errorf("sql: * must be the only select item")
		}
		bound, err := bindExpr(it.Expr, sc)
		if err != nil {
			return err
		}
		exprs[i] = bound
		names[i] = it.Alias
		if names[i] == "" {
			if c, ok := it.Expr.(ColRef); ok {
				names[i] = c.Name
			} else {
				names[i] = fmt.Sprintf("col_%d", i+1)
			}
		}
		kinds[i] = sc.kind(bound)
	}
	lg.Project = &plan.ProjectSpec{Exprs: exprs, Names: names, Kinds: kinds}
	return nil
}

// bindExpr lowers an AST expression against a scope; column positions in
// the result are global column ids.
func bindExpr(n Node, sc *scope) (expr.Expr, error) {
	switch n := n.(type) {
	case ColRef:
		idx, err := sc.resolve(n)
		if err != nil {
			return nil, err
		}
		return expr.Col{Idx: idx, Name: n.Name}, nil
	case Lit:
		v, err := litValue(n)
		if err != nil {
			return nil, err
		}
		return expr.Const{V: v}, nil
	case UnaryNot:
		e, err := bindExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		return expr.Not{E: e}, nil
	case BetweenNode:
		e, err := bindExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		lo, lok := n.Lo.(Lit)
		hi, hok := n.Hi.(Lit)
		if !lok || !hok {
			return nil, fmt.Errorf("sql: BETWEEN bounds must be literals")
		}
		loV, err := litValue(lo)
		if err != nil {
			return nil, err
		}
		hiV, err := litValue(hi)
		if err != nil {
			return nil, err
		}
		if err := checkComparable(n.E, lo, sc.kind(e), loV.Kind); err != nil {
			return nil, err
		}
		if err := checkComparable(n.E, hi, sc.kind(e), hiV.Kind); err != nil {
			return nil, err
		}
		// SQL BETWEEN is inclusive on both ends; the plan's Between is
		// [lo, hi), so lower as a conjunction of comparisons.
		return expr.And{Terms: []expr.Expr{
			expr.Cmp{Op: expr.GE, L: e, R: expr.Const{V: loV}},
			expr.Cmp{Op: expr.LE, L: e, R: expr.Const{V: hiV}},
		}}, nil
	case InNode:
		e, err := bindExpr(n.E, sc)
		if err != nil {
			return nil, err
		}
		terms := make([]expr.Expr, len(n.List))
		for i, item := range n.List {
			lit, ok := item.(Lit)
			if !ok {
				return nil, fmt.Errorf("sql: IN list items must be literals")
			}
			v, err := litValue(lit)
			if err != nil {
				return nil, err
			}
			if err := checkComparable(n.E, lit, sc.kind(e), v.Kind); err != nil {
				return nil, err
			}
			terms[i] = expr.Cmp{Op: expr.EQ, L: e, R: expr.Const{V: v}}
		}
		// Lowered as the linear OR chain the paper's engines evaluate.
		return expr.Or{Terms: terms}, nil
	case BinOp:
		l, err := bindExpr(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(n.R, sc)
		if err != nil {
			return nil, err
		}
		lk, rk := sc.kind(l), sc.kind(r)
		switch n.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			if err := checkComparable(n.L, n.R, lk, rk); err != nil {
				return nil, err
			}
		case "+", "-", "*", "/":
			operand, k := n.L, lk
			if k != expr.KindString {
				operand, k = n.R, rk
			}
			if k == expr.KindString {
				return nil, fmt.Errorf("sql: operator %s needs numeric operands, got %s (%s)", n.Op, operand, k)
			}
		}
		switch n.Op {
		case "AND":
			return expr.And{Terms: []expr.Expr{l, r}}, nil
		case "OR":
			return expr.Or{Terms: []expr.Expr{l, r}}, nil
		case "=":
			return expr.Cmp{Op: expr.EQ, L: l, R: r}, nil
		case "<>":
			return expr.Cmp{Op: expr.NE, L: l, R: r}, nil
		case "<":
			return expr.Cmp{Op: expr.LT, L: l, R: r}, nil
		case "<=":
			return expr.Cmp{Op: expr.LE, L: l, R: r}, nil
		case ">":
			return expr.Cmp{Op: expr.GT, L: l, R: r}, nil
		case ">=":
			return expr.Cmp{Op: expr.GE, L: l, R: r}, nil
		case "+":
			return expr.Arith{Op: expr.Add, L: l, R: r}, nil
		case "-":
			return expr.Arith{Op: expr.Sub, L: l, R: r}, nil
		case "*":
			return expr.Arith{Op: expr.Mul, L: l, R: r}, nil
		case "/":
			return expr.Arith{Op: expr.Div, L: l, R: r}, nil
		default:
			return nil, fmt.Errorf("sql: unsupported operator %q", n.Op)
		}
	default:
		return nil, fmt.Errorf("sql: cannot bind %T", n)
	}
}

// checkComparable rejects comparing l, of kind lk, with r, of kind rk, when
// one side is a string and the other numeric (int, float, date, bool):
// expr.Compare orders values within one of those two classes only, and a
// statement that mixes them must fail here, as a bind error, not in the
// executor. NULL compares with everything.
func checkComparable(l, r Node, lk, rk expr.Kind) error {
	if lk != expr.KindNull && rk != expr.KindNull && (lk == expr.KindString) != (rk == expr.KindString) {
		return fmt.Errorf("sql: cannot compare %s (%s) with %s (%s)", l, lk, r, rk)
	}
	return nil
}

// checkJoinKey rejects a conjunct that equates columns of two tables whose
// kinds differ. Such a conjunct is a hash-join edge, and a join matches keys
// of one kind only — an int key never meets a float key, where the same
// comparison in a filter is numeric — so the statement would run and
// silently match nothing.
func checkJoinKey(lg *plan.Logical, pred expr.Expr) error {
	cmp, ok := pred.(expr.Cmp)
	if !ok || cmp.Op != expr.EQ {
		return nil
	}
	l, lok := cmp.L.(expr.Col)
	r, rok := cmp.R.(expr.Col)
	if !lok || !rok || lg.TableOf(l.Idx) == lg.TableOf(r.Idx) {
		return nil
	}
	if lk, rk := lg.ColKind(l.Idx), lg.ColKind(r.Idx); lk != rk {
		return fmt.Errorf("sql: cannot join %s (%s) with %s (%s): join keys must be of one kind",
			lg.ColName(l.Idx), lk, lg.ColName(r.Idx), rk)
	}
	return nil
}

func litValue(l Lit) (expr.Value, error) {
	switch l.Kind {
	case LitNumber:
		if l.N == math.Trunc(l.N) && math.Abs(l.N) < 1e15 {
			return expr.Int(int64(l.N)), nil
		}
		return expr.Float(l.N), nil
	case LitString:
		return expr.String(l.S), nil
	case LitDate:
		t, err := time.Parse("2006-01-02", l.S)
		if err != nil {
			return expr.Value{}, fmt.Errorf("sql: bad date %q: %v", l.S, err)
		}
		return expr.Date(t.Unix() / 86400), nil
	case LitBool:
		return expr.Bool(l.B), nil
	default:
		return expr.Null(), nil
	}
}

// splitConjuncts flattens a tree of AND nodes.
func splitConjuncts(n Node) []Node {
	if n == nil {
		return nil
	}
	if bo, ok := n.(BinOp); ok && bo.Op == "AND" {
		return append(splitConjuncts(bo.L), splitConjuncts(bo.R)...)
	}
	return []Node{n}
}

func toLower(s string) string {
	out := []byte(s)
	for i := range out {
		if out[i] >= 'A' && out[i] <= 'Z' {
			out[i] += 'a' - 'A'
		}
	}
	return string(out)
}
