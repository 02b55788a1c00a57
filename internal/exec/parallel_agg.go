package exec

import "ecodb/internal/storage"

// Aggregation over a heap fragment.
//
// An Agg whose input is a scan→filter→project chain over a heap does not
// serialize at the aggregation boundary: each pump producer runs the
// fragment over its pages AND folds the surviving rows into a private,
// run-local partial table, fed straight from the batch's column payloads
// (rows hashed column-wise and resolved to group ids in the partial's
// expr.KeyTable, aggregate arguments evaluated batch-wise into vectors),
// one partial per claimed run of adjacent pages. Merged partials come back
// to the producers with their slots and vectors, so a statement allocates
// about as many partials as its claim window holds runs — one per pooled
// producer (morselPump.open) — not one per run. The coordinator merges
// partial tables in ascending page order — resolving each partial's group
// values in the global table — and emits groups in sorted group-key order,
// the order of every aggregation. Without GROUP BY a partial resolves no
// row: it counts its rows and keeps its SUM/AVG arguments alone.
//
// Determinism is the design constraint, and it dictates what a partial may
// pre-reduce:
//
//   - COUNT is an integer and MIN/MAX keep a strict-inequality "earliest
//     wins" rule, so per-run partials merge losslessly in page order.
//   - SUM and AVG add floats, and float addition is not associative: a
//     sum-of-partial-sums would drift from the row-order sum in the last
//     bits. A partial therefore carries, per run, one flat vector of
//     argument values in row order and, with GROUP BY, one of group ids
//     beside it, and only the coordinator adds them into the running sums
//     — run order × row order = global row order, so the bits are those of
//     one fold over the whole heap, independent of worker count and run
//     length. A run is a fixed window of adjacent pages, which bounds both
//     vectors.
//
// Simulated accounting replays in the coordinator: per page, the
// scan/filter/project charges (morselPump.next), then the aggregation's
// per-row cycles and the argument-evaluation meter — what an aggregation
// over a scan operator charges. Results, durations, and joules are
// bit-identical across worker counts by construction.

// sink makes one producer's page function: fold every page's surviving
// rows into one run-local partial table — real computation and private
// metering only, no simulated-machine access. Pages fold in page order, so
// the partial's row vectors preserve the run's global row order. A new
// partial sizes them once, on its run's first page with survivors
// (runSurvivors); a recycled one keeps what its earlier runs grew, since
// re-estimating would ratchet it up to the noisiest estimate. The
// table rides on the run's last page; per-page accounting (fragment meters,
// row counts, argument-evaluation cycles) stays on each page's own record.
func (a *aggOp) sink() func(*morselResult, storage.MorselRun) {
	var part *aggTable
	fresh := false // part is new and its row vectors not yet sized
	return func(res *morselResult, run storage.MorselRun) {
		if part == nil {
			part = a.spare.get()
			if fresh = part == nil; fresh {
				part = newAggTable(a.groupBy, a.aggs, true)
			}
		}
		if res.rows > 0 {
			if fresh {
				part.reserve(runSurvivors(a.pump.src, res, run))
				fresh = false
			}
			part.fold(&res.batch, &res.argMeter)
		}
		if res.idx == run.End-1 {
			res.part, part = part, nil
		}
	}
}

// runSurvivors estimates how many rows of run will survive the fragment,
// from res, the run's first page with survivors: that page's survival rate
// over the physical rows from it to the run's end, with an eighth to spare,
// but never more than those rows. A partial reserving it folds a run with
// uniform survival without regrowing; reserving the physical rows outright
// would cost a selective aggregation fifty times what it keeps.
func runSurvivors(src *storage.MorselSource, res *morselResult, run storage.MorselRun) int {
	left := 0
	for i := res.idx; i < run.End; i++ {
		left += src.Page(i).NumRows()
	}
	est := res.rows * left / src.Page(res.idx).NumRows()
	return min(left, est+est/8)
}
