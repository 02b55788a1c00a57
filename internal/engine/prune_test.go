package engine

import (
	"testing"

	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/tpch"
)

// Zone-map pruning is a property of the engine (Profile.ZoneMapPruning), not
// of the process: a pruning engine and a plain one, their statements' pulls
// interleaved batch by batch, each come out exactly as they do alone — rows,
// ExecStats, joules and the pages each statement's scan span read and
// skipped. (The pruned-pages registry counter stays process-wide and is not
// compared.)
func TestPruningIsPerEngineUnderInterleavedStatements(t *testing.T) {
	type outcome struct {
		rows          []expr.Row
		stats         ExecStats
		joules        float64
		read, skipped int64
	}
	type session struct {
		e     *Engine
		stmts []*Rows // started in order, one open at a time
		out   []outcome
	}
	const sf, nBands = 0.01, 3
	open := func(pruning bool) *session {
		prof := ProfileCommercial()
		prof.ZoneMapPruning = pruning
		e, _ := newEngine(t, prof, sf)
		e.WarmAll()
		e.SetProfiling(true)
		return &session{e: e}
	}
	// step starts statement i if none is open and pulls one batch; it reports
	// whether statement i is finished.
	step := func(s *session, i int) bool {
		if len(s.stmts) == i {
			s.stmts = append(s.stmts, s.e.Query(tpch.OrderkeyBandWorkload(s.e.Catalog(), sf, nBands)[i]))
			s.out = append(s.out, outcome{})
		}
		r, o := s.stmts[i], &s.out[i]
		b, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			o.rows = b.AppendRowsTo(o.rows)
			return false
		}
		o.stats = r.Stats()
		p := r.Profile()
		o.joules = p.Joules
		obsv.Walk(p.Root, func(sp *obsv.Span, _ int) {
			o.read += sp.PagesRead
			o.skipped += sp.PagesPruned
		})
		return true
	}
	solo := func(pruning bool) []outcome {
		s := open(pruning)
		for i := 0; i < nBands; i++ {
			for !step(s, i) {
			}
		}
		return s.out
	}

	wantPruned, wantPlain := solo(true), solo(false)
	if wantPruned[0].skipped == 0 || wantPlain[0].skipped != 0 || wantPruned[0].joules >= wantPlain[0].joules {
		t.Fatalf("fixture does not bite: pruning engine skipped %d pages for %v J, plain engine %d for %v J",
			wantPruned[0].skipped, wantPruned[0].joules, wantPlain[0].skipped, wantPlain[0].joules)
	}

	pruned, plain := open(true), open(false)
	for i := 0; i < nBands; i++ {
		for doneA, doneB := false, false; !doneA || !doneB; {
			if !doneA {
				doneA = step(pruned, i)
			}
			if !doneB {
				doneB = step(plain, i)
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want []outcome
	}{{"pruning engine", pruned.out, wantPruned}, {"plain engine", plain.out, wantPlain}} {
		for i, want := range c.want {
			got := c.got[i]
			if len(got.rows) != len(want.rows) {
				t.Fatalf("%s, statement %d: %d rows interleaved, %d alone", c.name, i, len(got.rows), len(want.rows))
			}
			for r := range want.rows {
				for col := range want.rows[r] {
					if got.rows[r][col] != want.rows[r][col] {
						t.Fatalf("%s, statement %d: row %d col %d is %v interleaved, %v alone",
							c.name, i, r, col, got.rows[r][col], want.rows[r][col])
					}
				}
			}
			if got.stats != want.stats || got.joules != want.joules || got.read != want.read || got.skipped != want.skipped {
				t.Errorf("%s, statement %d interleaved: stats %+v, %v J, %d pages read, %d skipped; alone: %+v, %v J, %d, %d",
					c.name, i, got.stats, got.joules, got.read, got.skipped, want.stats, want.joules, want.read, want.skipped)
			}
		}
	}
}
