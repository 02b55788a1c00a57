package expr

import (
	"fmt"
	"strings"
)

// Per-node evaluation costs in CPU cycles, reflecting an interpreted
// expression evaluator of the paper's era (MySQL 5.1's Item tree or a
// commercial engine's expression interpreter): virtual dispatch plus the
// arithmetic itself.
const (
	CyclesColRef    = 3  // slot lookup
	CyclesConst     = 1  //
	CyclesCompare   = 8  // dispatch + numeric compare
	CyclesStringCmp = 14 // dispatch + short-string compare
	CyclesArith     = 7  // dispatch + flop
	CyclesLogic     = 4  // and/or/not step
	CyclesHashProbe = 18 // hash + bucket probe for set membership
)

// Cost accumulates the CPU cycles charged by expression evaluation. The
// executor drains it into the simulated CPU at page granularity.
type Cost struct {
	Cycles float64
}

// Add charges c cycles.
func (c *Cost) Add(cycles float64) {
	if c != nil {
		c.Cycles += cycles
	}
}

// Drain returns the accumulated cycles and resets the meter.
func (c *Cost) Drain() float64 {
	v := c.Cycles
	c.Cycles = 0
	return v
}

// EvalCycles is what evaluating e charges per input row when every
// operand is present — the per-node constants Eval adds, summed over the
// tree. It is the one per-row price of an expression: the optimizer
// estimates a predicate or projection with it, and every typed batch
// kernel bills rows × EvalCycles of the node it runs. Two shapes are priced
// by their common case: a comparison with a string constant, on either
// side, as a string compare, and the tested operand of Between and InHash
// as a bare column reference.
func EvalCycles(e Expr) float64 {
	switch n := e.(type) {
	case Col:
		return CyclesColRef
	case Const:
		return CyclesConst
	case Cmp:
		cmp := float64(CyclesCompare)
		for _, side := range [...]Expr{n.L, n.R} {
			if k, ok := side.(Const); ok && k.V.Kind == KindString {
				cmp = CyclesStringCmp
			}
		}
		return EvalCycles(n.L) + EvalCycles(n.R) + cmp
	case Between:
		return CyclesColRef + 2*CyclesCompare
	case And:
		return logicEvalCycles(n.Terms)
	case Or:
		return logicEvalCycles(n.Terms)
	case Not:
		return EvalCycles(n.E) + CyclesLogic
	case *InHash:
		return CyclesColRef + CyclesHashProbe
	case Arith:
		return EvalCycles(n.L) + EvalCycles(n.R) + CyclesArith
	default:
		return 20
	}
}

// logicEvalCycles prices an AND or OR with no short circuit: every term
// and its logic step.
func logicEvalCycles(terms []Expr) float64 {
	var s float64
	for _, t := range terms {
		s += EvalCycles(t) + CyclesLogic
	}
	return s
}

// Expr is a typed expression over a row.
type Expr interface {
	// Eval computes the expression on row, charging cycles to cost.
	// cost may be nil when the caller does not meter (tests, planning).
	Eval(row Row, cost *Cost) Value
	String() string
}

// KindOf returns the one kind every non-NULL value of e has, given the
// kind of each column e reads: a column's own, a literal's, float for
// arithmetic, and bool for comparisons and logic.
func KindOf(e Expr, colKind func(int) Kind) Kind {
	switch e := e.(type) {
	case Col:
		return colKind(e.Idx)
	case Const:
		return e.V.Kind
	case Arith:
		return KindFloat
	}
	return KindBool
}

// Col references a column by position; Name is for display only.
type Col struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (c Col) Eval(row Row, cost *Cost) Value {
	cost.Add(CyclesColRef)
	return row[c.Idx]
}

func (c Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct {
	V Value
}

// Eval implements Expr.
func (c Const) Eval(_ Row, cost *Cost) Value {
	cost.Add(CyclesConst)
	return c.V
}

func (c Const) String() string {
	if c.V.Kind == KindString {
		return "'" + c.V.S + "'"
	}
	return c.V.String()
}

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Flip mirrors an operator across its operands: k ⋈ x becomes x ⋈' k.
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o // EQ, NE are symmetric
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(row Row, cost *Cost) Value {
	l := c.L.Eval(row, cost)
	r := c.R.Eval(row, cost)
	if l.IsNull() || r.IsNull() {
		cost.Add(CyclesCompare)
		return Bool(false)
	}
	if l.Kind == KindString {
		cost.Add(CyclesStringCmp)
	} else {
		cost.Add(CyclesCompare)
	}
	rel := Compare(l, r)
	switch c.Op {
	case EQ:
		return Bool(rel == 0)
	case NE:
		return Bool(rel != 0)
	case LT:
		return Bool(rel < 0)
	case LE:
		return Bool(rel <= 0)
	case GT:
		return Bool(rel > 0)
	case GE:
		return Bool(rel >= 0)
	default:
		panic(fmt.Sprintf("expr: unknown CmpOp %d", int(c.Op)))
	}
}

func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// Between tests lo <= e < hi, the shape of TPC-H date-range predicates.
type Between struct {
	E      Expr
	Lo, Hi Value // inclusive lower, exclusive upper
}

// Eval implements Expr.
func (b Between) Eval(row Row, cost *Cost) Value {
	v := b.E.Eval(row, cost)
	cost.Add(2 * CyclesCompare)
	if v.IsNull() {
		return Bool(false)
	}
	return Bool(Compare(v, b.Lo) >= 0 && Compare(v, b.Hi) < 0)
}

func (b Between) String() string {
	return fmt.Sprintf("(%s in [%s, %s))", b.E, b.Lo, b.Hi)
}

// And is a short-circuit conjunction.
type And struct {
	Terms []Expr
}

// Eval implements Expr.
func (a And) Eval(row Row, cost *Cost) Value {
	for _, t := range a.Terms {
		cost.Add(CyclesLogic)
		if !t.Eval(row, cost).Truthy() {
			return Bool(false)
		}
	}
	return Bool(true)
}

func (a And) String() string { return joinExprs(a.Terms, " AND ") }

// Or is a short-circuit disjunction evaluated left to right — the linear
// OR-chain a 2008-era engine runs for QED's merged predicates, whose cost
// grows with the number of disjuncts.
type Or struct {
	Terms []Expr
}

// Eval implements Expr.
func (o Or) Eval(row Row, cost *Cost) Value {
	for _, t := range o.Terms {
		cost.Add(CyclesLogic)
		if t.Eval(row, cost).Truthy() {
			return Bool(true)
		}
	}
	return Bool(false)
}

func (o Or) String() string { return joinExprs(o.Terms, " OR ") }

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n Not) Eval(row Row, cost *Cost) Value {
	cost.Add(CyclesLogic)
	return Bool(!n.E.Eval(row, cost).Truthy())
}

func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// InHash tests membership of an expression in a constant set using a hash
// table — the plan shape a smarter optimizer produces for a merged QED
// disjunction over one column.
type InHash struct {
	E   Expr
	Set map[Value]struct{}
	// Desc is used for display (the set itself may be large).
	Desc string
}

// NewInHash builds a hash-set membership test over constant values.
func NewInHash(e Expr, vals []Value) *InHash {
	set := make(map[Value]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return &InHash{E: e, Set: set, Desc: fmt.Sprintf("IN<%d values>", len(vals))}
}

// Eval implements Expr.
func (i *InHash) Eval(row Row, cost *Cost) Value {
	v := i.E.Eval(row, cost)
	cost.Add(CyclesHashProbe)
	_, ok := i.Set[v]
	return Bool(ok)
}

func (i *InHash) String() string { return fmt.Sprintf("(%s %s)", i.E, i.Desc) }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith computes a binary arithmetic expression in float64, the precision
// TPC-H revenue aggregation needs.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(row Row, cost *Cost) Value {
	l := a.L.Eval(row, cost)
	r := a.R.Eval(row, cost)
	cost.Add(CyclesArith)
	if l.IsNull() || r.IsNull() {
		return Null()
	}
	x, y := l.AsFloat(), r.AsFloat()
	switch a.Op {
	case Add:
		return Float(x + y)
	case Sub:
		return Float(x - y)
	case Mul:
		return Float(x * y)
	case Div:
		if y == 0 {
			return Null()
		}
		return Float(x / y)
	default:
		panic(fmt.Sprintf("expr: unknown ArithOp %d", int(a.Op)))
	}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// AppendCols appends the position of every column e references to dst, left
// to right, and returns the extended slice. It panics on a node it does not
// know.
func AppendCols(dst []int, e Expr) []int {
	switch n := e.(type) {
	case Col:
		return append(dst, n.Idx)
	case Const:
		return dst
	case Cmp:
		return AppendCols(AppendCols(dst, n.L), n.R)
	case Arith:
		return AppendCols(AppendCols(dst, n.L), n.R)
	case Between:
		return AppendCols(dst, n.E)
	case *InHash:
		return AppendCols(dst, n.E)
	case Not:
		return AppendCols(dst, n.E)
	case And:
		for _, t := range n.Terms {
			dst = AppendCols(dst, t)
		}
		return dst
	case Or:
		for _, t := range n.Terms {
			dst = AppendCols(dst, t)
		}
		return dst
	}
	panic(fmt.Sprintf("expr: cannot walk expression %T", e))
}

// Remap returns e with every column position rewritten through f, leaving
// e untouched. It panics on a node it does not know.
func Remap(e Expr, f func(int) int) Expr {
	switch n := e.(type) {
	case Col:
		return Col{Idx: f(n.Idx), Name: n.Name}
	case Const:
		return n
	case Cmp:
		return Cmp{Op: n.Op, L: Remap(n.L, f), R: Remap(n.R, f)}
	case Arith:
		return Arith{Op: n.Op, L: Remap(n.L, f), R: Remap(n.R, f)}
	case Between:
		return Between{E: Remap(n.E, f), Lo: n.Lo, Hi: n.Hi}
	case *InHash:
		return &InHash{E: Remap(n.E, f), Set: n.Set, Desc: n.Desc}
	case Not:
		return Not{E: Remap(n.E, f)}
	case And:
		return And{Terms: remapTerms(n.Terms, f)}
	case Or:
		return Or{Terms: remapTerms(n.Terms, f)}
	}
	panic(fmt.Sprintf("expr: cannot remap expression %T", e))
}

func remapTerms(terms []Expr, f func(int) int) []Expr {
	out := make([]Expr, len(terms))
	for i, t := range terms {
		out[i] = Remap(t, f)
	}
	return out
}

func joinExprs(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
