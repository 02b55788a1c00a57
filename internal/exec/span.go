package exec

import (
	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
)

// spanOp wraps a physical operator with a profile span. compile inserts one
// around every operator it lowers, so the profile tree mirrors the executed
// operator tree exactly. With profiling off (ctx.Obs == nil) the wrapper is
// a single nil check per call and allocates nothing; with profiling on it
// brackets the inner operator's Open/Next/Close so every charge the
// operator makes — including charges made while pulling from its children,
// which bracket themselves the same way — attributes to the innermost
// active span, i.e. the operator that charged it.
type spanOp struct {
	inner Operator
	kind  obsv.Kind
	label string
	table string
	span  *obsv.Span
}

func wrapSpan(op Operator, kind obsv.Kind, label, table string) Operator {
	return &spanOp{inner: op, kind: kind, label: label, table: table}
}

func (w *spanOp) Schema() *catalog.Schema { return w.inner.Schema() }

func (w *spanOp) Open(ctx *Ctx) error {
	if ctx.Obs == nil {
		return w.inner.Open(ctx)
	}
	w.span = ctx.Obs.OpenSpan(w.kind, w.label, w.table, ctx.CPU.Clock().Now())
	err := w.inner.Open(ctx)
	ctx.Obs.Pop(ctx.CPU.Clock().Now())
	return err
}

func (w *spanOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if ctx.Obs == nil || w.span == nil {
		return w.inner.Next(ctx)
	}
	ctx.Obs.Push(w.span)
	b, err := w.inner.Next(ctx)
	if b != nil {
		w.span.Batches++
		w.span.Rows += int64(b.Len())
	}
	ctx.Obs.Pop(ctx.CPU.Clock().Now())
	return b, err
}

func (w *spanOp) Close(ctx *Ctx) error {
	if ctx.Obs == nil || w.span == nil {
		return w.inner.Close(ctx)
	}
	ctx.Obs.Push(w.span)
	err := w.inner.Close(ctx)
	ctx.Obs.Pop(ctx.CPU.Clock().Now())
	return err
}
