package exec

import (
	"sync/atomic"

	"ecodb/internal/catalog"
	"ecodb/internal/expr"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
	"ecodb/internal/storage"
)

// Sort over a heap fragment: run generation in the pump + loser-tree
// multiway merge.
//
// Each pump producer runs the scan→filter→project fragment over its claimed
// run of adjacent pages and feeds the survivors to a sortedRun — the
// accumulator sortOp uses — ordered by the sort keys with ties broken on
// the global row ordinal (page index × row index): real comparison work,
// done in producer context. The coordinator replays every page's simulated
// accounting in page order, charges the single n·log₂n formula on the total
// surviving row count, and then merges the sorted runs with a tournament
// tree of losers, streaming the globally ordered output in columnar
// batches. Under a limit every run keeps only its limit smallest rows and
// the merge stops after limit rows; the charge is still on the rows
// consumed.
//
// Determinism: runs are fixed contiguous page windows independent of
// worker count (storage.MorselSource), so run contents — and therefore
// merge decisions — depend only on the data. The (keys, global ordinal)
// order the merge produces is exactly the order one stable sort over the
// whole heap produces, because arrival order there IS ascending global
// ordinal; ordinals are unique, so the total order has no residual
// nondeterminism. Results are byte-identical to sortOp over a scan leaf at
// any worker count, and simulated durations and joules are bit-identical
// because the coordinator's charge sequence is the same.

// parallelSortOp is the fragment-folded sort: pump producers generate
// sorted runs, the coordinator replays charges and merges.
type parallelSortOp struct {
	keys  []plan.SortKey
	limit int // handed down by a Limit directly above; negative = none

	pump morselPump
	// bound is the tightest cutoff any sealed run has offered (see
	// sortedRun.bound): the limit-th row of a run that kept limit rows.
	// Which rows a run keeps therefore depends on which runs sealed before
	// it started, but the first limit rows of the merge do not — no row
	// among them ever sorts after a bound.
	bound  atomic.Pointer[sortBound]
	runs   []*sortedRun
	lt     *loserTree
	total  int // rows consumed, over all runs
	served int
	out    expr.Batch
}

func newParallelSort(f *fragment, keys []plan.SortKey, limit, workers int) *parallelSortOp {
	s := &parallelSortOp{keys: keys, limit: limit}
	s.pump = morselPump{frag: f, workers: workers, sink: s.sink}
	return s
}

func (s *parallelSortOp) Schema() *catalog.Schema { return s.pump.frag.schema }

func (s *parallelSortOp) Open(ctx *Ctx) error {
	s.runs, s.lt, s.total, s.served = nil, nil, 0, 0
	s.bound.Store(nil)
	s.out = *expr.NewBatch(s.Schema().NumCols())
	s.pump.open(ctx)
	return nil
}

// sink makes one producer's page function: feed each page's survivors to
// the run under their global ordinals, then — on the run's last page — one
// sort of what the run kept. The sealed run rides that page's record, so
// the coordinator sees it exactly when the run's last page is taken.
func (s *parallelSortOp) sink() func(*morselResult, storage.MorselRun) {
	var sr *sortedRun
	return func(res *morselResult, run storage.MorselRun) {
		if sr == nil {
			sr = newSortedRun(s.keys, s.limit, s.Schema().NumCols())
			sr.bound = s.bound.Load()
		}
		sr.add(&res.batch, int64(res.idx)<<32)
		if res.idx != run.End-1 {
			return
		}
		sr.seal()
		if s.limit > 0 && len(sr.perm) == s.limit {
			s.tighten(&sortBound{run: sr, row: sr.perm[s.limit-1]})
		}
		res.run, sr = sr, nil
	}
}

// tighten offers b as the bound for runs yet to start, keeping whichever of
// it and the current bound sorts first.
func (s *parallelSortOp) tighten(b *sortBound) {
	for {
		cur := s.bound.Load()
		if cur != nil && cur.after(&b.run.buf, b.row, b.run.ord[b.row]) {
			return
		}
		if s.bound.CompareAndSwap(cur, b) {
			return
		}
	}
}

// consume drains the pump in page order, collecting the sorted runs, then
// charges the sort formula on the total surviving row count — the charge
// sequence of sortOp over a scan leaf — and seats the merge tree.
func (s *parallelSortOp) consume(ctx *Ctx) {
	for res := s.pump.next(ctx); res != nil; res = s.pump.next(ctx) {
		if res.run != nil {
			s.total += res.run.rows
			if len(res.run.perm) > 0 {
				s.runs = append(s.runs, res.run)
			}
		}
	}
	obsv.SortRows.Add(int64(s.total))
	ctx.Cost.Sort(ctx, float64(s.total))
	ctx.Flush()
	if len(s.runs) > 0 {
		obsv.MergePasses.Inc() // single-level merge: one pass over the runs
	}
	s.lt = newLoserTree(s.runs)
}

func (s *parallelSortOp) Next(ctx *Ctx) (*expr.Batch, error) {
	if s.lt == nil {
		s.consume(ctx)
	}
	s.out.Reset()
	target := ctx.BatchTarget()
	if s.limit >= 0 {
		target = min(target, s.limit-s.served)
	}
	for s.out.N < target {
		run, idx := s.lt.pop()
		if run == nil {
			break
		}
		for c := range s.out.Cols {
			s.out.Cols[c].AppendElem(&run.buf.Cols[c], idx)
		}
		s.out.N++
	}
	if s.out.N == 0 {
		return nil, nil
	}
	s.served += s.out.N
	return &s.out, nil
}

func (s *parallelSortOp) Close(*Ctx) error {
	s.pump.close()
	s.runs, s.lt = nil, nil
	return nil
}

// loserTree is a tournament tree of losers over K sorted runs: node[i]
// holds the run that lost the match at internal node i, win the run whose
// head is the global minimum. pop is O(log K) — one leaf-to-root replay —
// against O(K) for a naive scan, which matters when a big table yields
// hundreds of runs.
type loserTree struct {
	runs []*sortedRun
	node []int // loser run index per internal node; -1 = empty slot
	win  int
}

func newLoserTree(runs []*sortedRun) *loserTree {
	lt := &loserTree{runs: runs, win: -1}
	k := len(runs)
	lt.node = make([]int, k)
	for i := range lt.node {
		lt.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		lt.insert(i)
	}
	return lt
}

// insert seats run i during construction: it walks i's leaf-to-root path,
// parking the carried winner in the first empty node; once every node on
// the path holds a loser the carried winner plays through to the root.
// Inserting leaves in descending order fills all k-1 internal nodes and
// crowns the overall winner on the final insert.
func (lt *loserTree) insert(i int) {
	k := len(lt.runs)
	w := i
	for n := (k + i) / 2; n > 0; n /= 2 {
		if lt.node[n] == -1 {
			lt.node[n] = w
			return
		}
		if lt.beats(lt.node[n], w) {
			lt.node[n], w = w, lt.node[n]
		}
	}
	lt.win = w
}

// replay re-plays the matches on run r's leaf-to-root path after r's head
// changed, leaving losers at the internal nodes and the winner in win.
func (lt *loserTree) replay(r int) {
	k := len(lt.runs)
	w := r
	for n := (k + r) / 2; n > 0; n /= 2 {
		if lt.beats(lt.node[n], w) {
			lt.node[n], w = w, lt.node[n]
		}
	}
	lt.win = w
}

// beats reports whether run a's head row orders strictly before run b's
// head row under (keys, global ordinal). Exhausted runs and empty slots
// lose to everything.
func (lt *loserTree) beats(a, b int) bool {
	if a < 0 {
		return false
	}
	ra := lt.runs[a]
	if ra.pos >= len(ra.perm) {
		return false
	}
	if b < 0 {
		return true
	}
	rb := lt.runs[b]
	if rb.pos >= len(rb.perm) {
		return true
	}
	ia, ib := ra.perm[ra.pos], rb.perm[rb.pos]
	if c := expr.CompareRows(ra.keys, &ra.buf, ia, &rb.buf, ib); c != 0 {
		return c < 0
	}
	return ra.ord[ia] < rb.ord[ib]
}

// pop returns the run holding the globally smallest head row and that
// row's physical index in the run's buffer, advancing the run's cursor;
// nil when every run is exhausted.
func (lt *loserTree) pop() (*sortedRun, int32) {
	if lt.win < 0 {
		return nil, 0
	}
	r := lt.runs[lt.win]
	if r.pos >= len(r.perm) {
		return nil, 0 // the best head is exhausted: all runs are
	}
	idx := r.perm[r.pos]
	r.pos++
	lt.replay(lt.win)
	return r, idx
}
