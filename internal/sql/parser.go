package sql

import (
	"fmt"
	"strconv"
)

// Parse parses one SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	explain := p.acceptKeyword("EXPLAIN")
	analyze := explain && p.acceptKeyword("ANALYZE")
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Explain = explain
	stmt.Analyze = analyze
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks   []token
	i      int
	depth  int // NOTs and parentheses open around the expression being parsed
	height int // operators on the longest path down the expression parsed last
}

// maxExprDepth bounds an expression two ways: at most this many NOTs and
// parentheses open at once, and at most this many operators — NOT, the
// binary ones, a comparison, BETWEEN or IN — on any path from its root to a
// leaf. The parser recurses once per NOT or parenthesis, and every later
// pass over the tree once per operator, so without a bound a 600 KB body of
// NOTs, or of "1+1+1+…", grows the stack to hundreds of megabytes.
const maxExprDepth = 256

// nest enters one more level of NOT or parentheses, or fails past
// maxExprDepth. The caller leaves it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return p.tooDeep()
	}
	return nil
}

// above sets p.height to that of an operator over operands at most h high,
// or fails past maxExprDepth.
func (p *parser) above(h int) error {
	if p.height = h + 1; p.height > maxExprDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return p.errf("expression nested deeper than %d", maxExprDepth)
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format+" (at offset %d)", append(args, p.peek().pos)...)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt.From = TableRef{Name: name}

	// JOIN chain.
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jname, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: TableRef{Name: jname}, On: cond})
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("expected limit count, found %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad limit %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate call?
	if t := p.peek(); t.kind == tokKeyword {
		switch t.text {
		case "SUM", "COUNT", "MIN", "MAX", "AVG":
			p.next()
			if err := p.expectSymbol("("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: t.text}
			if t.text == "COUNT" && p.acceptSymbol("*") {
				// COUNT(*): no argument.
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return SelectItem{}, err
				}
				item.Expr = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			item.Alias = p.parseOptionalAlias()
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e, Alias: p.parseOptionalAlias()}, nil
}

func (p *parser) parseOptionalAlias() string {
	if p.acceptKeyword("AS") {
		if t := p.peek(); t.kind == tokIdent {
			p.next()
			return t.text
		}
	}
	return ""
}

func (p *parser) parseIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptSymbol(".") {
		col, err := p.parseIdent()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: name, Name: col}, nil
	}
	return ColRef{Name: name}, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr   := and { OR and }
//	and    := not { AND not }
//	not    := [NOT] pred
//	pred   := add [ cmpop add | BETWEEN add AND add | IN (lit, ...) ]
//	add    := mul { (+|-) mul }
//	mul    := prim { (*|/) prim }
//	prim   := literal | colref | ( expr )
func (p *parser) parseExpr() (Node, error) { return p.parseOr() }

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		hl := p.height
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if err := p.above(max(hl, p.height)); err != nil {
			return nil, err
		}
		l = BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		hl := p.height
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if err := p.above(max(hl, p.height)); err != nil {
			return nil, err
		}
		l = BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		p.depth--
		if err != nil {
			return nil, err
		}
		if err := p.above(p.height); err != nil {
			return nil, err
		}
		return UnaryNot{E: e}, nil
	}
	return p.parsePred()
}

func (p *parser) parsePred() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.next()
			hl := p.height
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.above(max(hl, p.height)); err != nil {
				return nil, err
			}
			return BinOp{Op: t.text, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("BETWEEN") {
		h := p.height
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		h = max(h, p.height)
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.above(max(h, p.height)); err != nil {
			return nil, err
		}
		return BetweenNode{E: l, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Node
		h := p.height
		for {
			v, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			list = append(list, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if err := p.above(h); err != nil {
			return nil, err
		}
		return InNode{E: l, List: list}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.next()
			hl := p.height
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			if err := p.above(max(hl, p.height)); err != nil {
				return nil, err
			}
			l = BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMul() (Node, error) {
	l, err := p.parsePrim()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if (t.kind == tokSymbol && t.text == "*") || (t.kind == tokOp && t.text == "/") {
			p.next()
			hl := p.height
			r, err := p.parsePrim()
			if err != nil {
				return nil, err
			}
			if err := p.above(max(hl, p.height)); err != nil {
				return nil, err
			}
			op := t.text
			l = BinOp{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parsePrim() (Node, error) {
	p.height = 0 // a leaf; a parenthesized expression sets its own
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return Lit{Kind: LitNumber, N: n}, nil
	case t.kind == tokString:
		p.next()
		return Lit{Kind: LitString, S: t.text}, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.next()
		s := p.next()
		if s.kind != tokString {
			return nil, p.errf("expected date string after DATE, found %s", s)
		}
		return Lit{Kind: LitDate, S: s.text}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.next()
		return Lit{Kind: LitBool, B: t.text == "TRUE"}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return Lit{Kind: LitNull}, nil
	case t.kind == tokIdent:
		return p.parseColRefNode()
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		p.depth--
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("unexpected %s in expression", t)
	}
}

func (p *parser) parseColRefNode() (Node, error) {
	c, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	return c, nil
}
