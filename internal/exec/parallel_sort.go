package exec

import (
	"ecodb/internal/expr"
	"ecodb/internal/storage"
)

// Sort over a heap fragment: run generation in the pump + loser-tree
// multiway merge.
//
// Each pump producer runs the scan→filter→project fragment over its claimed
// run of adjacent pages and feeds the survivors to a sortedRun — the
// accumulator the operator-input sort fills with its whole input — ordered
// by the sort keys with ties broken on the global row ordinal (page index ×
// row index): real comparison work, done in producer context. The
// coordinator replays every page's simulated accounting in page order,
// charges the single n·log₂n formula on the total surviving row count, and
// then merges the sorted runs with a tournament tree of losers, streaming
// the globally ordered output in columnar batches. Under a limit every run
// keeps only its limit smallest rows and the merge stops after limit rows;
// the charge is still on the rows consumed.
//
// Top-N cutoff: every run that seals under a limit merges its kept rows
// into one mutex-guarded list, the first limit rows over every run sealed
// so far (offer), and once the list holds limit rows its last row is
// published through the atomic bound. Producers re-read the bound on every
// page. A page's batch first meets one typed selection on the first sort
// key against the tighter of the bound and the run's full-heap root: it
// keeps !(x > k) ascending and !(x < k) descending, so ties with k and NaN
// (which ties with everything) stay, and a NULL k or a vector with NULLs
// skips the selection. Only the rows it keeps take the exact (keys,
// ordinal) tests against the bound and the heap root. A row that sorts
// after a bound has at least limit rows before it, so no bound ever drops
// one of the first limit rows overall: which bound was in force when a
// page arrived changes what a run keeps, never what the merge serves.
//
// Determinism: runs are fixed contiguous page windows independent of
// worker count (storage.MorselSource), so run contents — and therefore
// merge decisions — depend only on the data. The (keys, global ordinal)
// order the merge produces is exactly the order one stable sort over the
// whole heap produces, because arrival order there IS ascending global
// ordinal; ordinals are unique, so the total order has no residual
// nondeterminism. Results are byte-identical to a one-run sort over a scan
// operator at any worker count, and simulated durations and joules are
// bit-identical because the coordinator's charge sequence is the same.

// sink makes one producer's page function: feed each page's survivors to
// the run under their global ordinals, under the bound as it stands when
// the page arrives, then — on the run's last page — one sort of what the
// run kept and its offer to the shared cutoff. The sealed run rides that
// page's record, so the coordinator sees it exactly when the run's last
// page is taken.
func (s *sortOp) sink() func(*morselResult, storage.MorselRun) {
	var sr *sortedRun
	return func(res *morselResult, run storage.MorselRun) {
		if sr == nil {
			sr = s.mem.sortedRun(s.keys, s.limit, s.schema.NumCols())
		}
		sr.bound = s.bound.Load()
		sr.add(&res.batch, int64(res.idx)<<32)
		if res.idx != run.End-1 {
			return
		}
		sr.seal()
		if s.limit > 0 {
			s.offer(sr)
		}
		res.run, sr = sr, nil
	}
}

// offer merges a sealed run's kept rows into the cutoff list — the first
// limit rows over every run sealed so far — and, once the list holds limit
// rows, publishes its last as the bound. Both lists are in (keys, ordinal)
// order and at most limit long, so a seal costs O(limit) comparisons. The
// list only ever improves, so each bound published sorts at or before the
// one it replaces.
func (s *sortOp) offer(r *sortedRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cut, kept, merged := s.cut, r.perm, s.cut2[:0]
	for len(merged) < s.limit && len(cut)+len(kept) > 0 {
		if len(kept) == 0 || len(cut) > 0 && cut[0].after(&r.buf, kept[0], r.ord[kept[0]]) {
			merged, cut = append(merged, cut[0]), cut[1:]
		} else {
			merged, kept = append(merged, sortBound{run: r, row: kept[0]}), kept[1:]
		}
	}
	s.cut, s.cut2 = merged, s.cut
	if len(merged) < s.limit {
		return
	}
	b := merged[s.limit-1]
	if cur := s.bound.Load(); cur == nil || *cur != b {
		s.bound.Store(&b)
	}
}

// loserTree is a tournament tree of losers over K sorted runs: node[i]
// holds the run that lost the match at internal node i, win the run whose
// head is the global minimum. A pop is O(log K) — one leaf-to-root replay —
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

// popStretch pops the stretch of consecutive rows, at least one and at most
// most, that the run holding the globally smallest head row supplies before
// another run's head sorts first, and returns the run and the stretch's
// physical indexes in its buffer; nil when every run is exhausted. Each row
// costs the one leaf-to-root replay a single pop costs, which is nothing
// when there is one run.
func (lt *loserTree) popStretch(most int) (*sortedRun, []int32) {
	if lt.win < 0 {
		return nil, nil
	}
	w := lt.win
	r := lt.runs[w]
	start := r.pos
	for r.pos-start < most && lt.win == w && r.pos < len(r.perm) {
		r.pos++
		lt.replay(w)
	}
	if r.pos == start {
		return nil, nil // the best head is exhausted: all runs are
	}
	return r, r.perm[start:r.pos]
}
