package engine

import "ecodb/internal/expr"

// RunWindow executes one co-admission window — the paper's QED generalised:
// hold arriving statements, admit them together, run them. It is the only
// implementation of that loop: the server's flushes, workload.RunShared and
// the optimizer ablation all call it.
//
// Every statement is started, in slice order, before any is pulled, so scans
// sharing a pass on sess all enter it at the same page (but see the caveat
// on SharedSession.Query); then the streams are pulled round-robin in slice
// order, Stmt.Pulls batches per statement per round, until every stream is
// exhausted. The order is fixed, so a window's simulated durations and
// joules are deterministic. sess nil runs the window on private scans; on a
// session the window's size (nil Plans included) is the concurrency the
// optimizer costs shared attaches with.
//
// batch, when not nil, sees each result batch before the next pull
// invalidates it. done fires on the pull that ends a stream — exhaustion, or
// the error that stopped it — so the clock read there is the statement's
// completion instant, and r.Stats and r.Profile are final.
func (e *Engine) RunWindow(sess *SharedSession, stmts []Stmt, batch func(i int, r *Rows, b *expr.Batch), done func(i int, r *Rows, err error)) {
	if sess != nil {
		sess.expected = len(stmts)
	}
	streams := make([]*Rows, len(stmts))
	remaining := 0
	for i, st := range stmts {
		if st.Plan != nil {
			streams[i] = e.start(sess, st)
			remaining++
		}
	}
	for remaining > 0 {
		for i, r := range streams {
			for k := 0; r != nil && k < max(1, stmts[i].Pulls); k++ {
				b, err := r.Next()
				if b != nil {
					if batch != nil {
						batch(i, r, b)
					}
					continue
				}
				done(i, r, err)
				streams[i], r = nil, nil
				remaining--
			}
		}
	}
}
