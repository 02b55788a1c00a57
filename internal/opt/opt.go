package opt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"ecodb/internal/exec"
	"ecodb/internal/hw/cpu"
	"ecodb/internal/obsv"
	"ecodb/internal/plan"
)

// Objective selects what the optimizer minimizes. The zero value is
// disabled — engines bypass the optimizer entirely and run hand-lowered
// plans unchanged, which is what keeps the golden suites byte-stable.
type Objective struct {
	Enabled bool
	// JouleWeight blends the two goals: 0 minimizes latency, 1 minimizes
	// simulated joules, intermediate values trade them geometrically.
	JouleWeight float64
}

// MinimizeLatency returns the $/s objective.
func MinimizeLatency() Objective { return Objective{Enabled: true, JouleWeight: 0} }

// MinimizeJoules returns the $/J objective.
func MinimizeJoules() Objective { return Objective{Enabled: true, JouleWeight: 1} }

// Blend returns a weighted objective; w is clamped to [0, 1].
func Blend(w float64) Objective {
	return Objective{Enabled: true, JouleWeight: clamp01(w)}
}

func (o Objective) String() string {
	switch {
	case !o.Enabled:
		return "disabled"
	case o.JouleWeight <= 0:
		return "latency"
	case o.JouleWeight >= 1:
		return "joules"
	default:
		return fmt.Sprintf("blend(%.2f)", o.JouleWeight)
	}
}

// score is the quantity minimized: a weighted geometric blend of seconds
// and joules. Logarithms make the weight unit-free — at weight w the
// optimizer accepts a 1% latency increase for roughly w/(1−w) percent of
// energy saving.
func (o Objective) score(secs, joules float64) float64 {
	return (1-o.JouleWeight)*math.Log(max(secs, 1e-12)) +
		o.JouleWeight*math.Log(max(joules, 1e-12))
}

// Env is the environment one optimization runs against: the simulated
// processor (for cycle→time/energy conversion under its current tuning),
// the engine's cost constants, and the execution options the session can
// actually exercise.
type Env struct {
	CPU     *cpu.CPU
	Cost    exec.CostModel
	Amplify float64
	// OverheadCycles is the per-statement overhead the engine charges
	// outside the operator tree (unamplified).
	OverheadCycles float64
	// MaxParallelism caps the degree the optimizer may choose (the
	// profile's configured parallelism; never above the core count).
	MaxParallelism int
	// SharedConcurrency is the expected number of queries co-attached to
	// a shared scan pass. Values above 1 enable the shared access path as
	// a candidate: pass-fired work (page streaming, zone consults)
	// amortizes to 1/Q per query, while response time stretches as the
	// queries time-share the processor.
	SharedConcurrency int
}

// Choice is the optimizer's output: the physical lowering choices plus the
// execution configuration, with the estimates that won.
type Choice struct {
	Phys        plan.PhysChoices
	Parallelism int
	// Shared selects the shared-scan access path for the plan's leaves.
	Shared     bool
	Objective  Objective
	EstSeconds float64
	EstJoules  float64
	EstRows    float64
}

// errNoOrigin is Extract's answer for a plan built node by node.
var errNoOrigin = errors.New("opt: plan was not lowered from a logical plan")

// Extract returns the logical plan and physical choices root was lowered
// from — the origin Logical.Lower stamps on the root it returns
// (plan.OriginOf). A tree built node by node has no origin and yields an
// error; callers then execute it as given. The logical plan is shared with
// every other statement lowered from it, so callers only read it.
func Extract(root plan.Node) (*plan.Logical, plan.PhysChoices, error) {
	o := plan.OriginOf(root)
	if o == nil {
		return nil, plan.PhysChoices{}, errNoOrigin
	}
	return o.Logical, o.Choices, nil
}

// maxCandsPerSet caps the Pareto frontier kept per table subset during
// join enumeration.
const maxCandsPerSet = 8

// Optimize searches the physical plan space for lg — join order, build
// sides, pushdown depth, access path, parallelism — and returns the
// candidate the objective scores best. base is the hand-lowered (or
// front-end default) shape, always admitted as a candidate and used as
// the result-order reference.
//
// Result-order stability is a hard constraint, not a preference: join
// orders beyond base are only explored when the query aggregates (a hash
// table absorbs input row order) and has no LIMIT; and when a
// float-accumulating aggregate (SUM/AVG) is present, only shapes whose
// final probe stream is the same base table as base's are admitted —
// those accumulate every group in that table's heap order, making the
// aggregate bit-identical across all admitted shapes.
func Optimize(lg *plan.Logical, base plan.PhysChoices, env Env, obj Objective) (*Choice, error) {
	e, ch, err := optimize(lg, base, env, obj)
	e.release()
	return ch, err
}

// Plan is Optimize for a statement the engine serves: it also records the
// planning time in engine_planning_seconds, as Explain does. Optimize alone
// records nothing, so the bench tracer and the experiments, which plan only
// to trace or report, leave the metric to served plans.
func Plan(lg *plan.Logical, base plan.PhysChoices, env Env, obj Objective) (*Choice, error) {
	defer observePlanning(time.Now())
	return Optimize(lg, base, env, obj)
}

// observePlanning records one served plan's wall-clock time since t0.
func observePlanning(t0 time.Time) {
	obsv.PlanningSeconds.Observe(time.Since(t0).Seconds())
}

// optimize is Optimize handing back the estimate it planned with, for the
// caller to render from and release.
func optimize(lg *plan.Logical, base plan.PhysChoices, env Env, obj Objective) (*est, *Choice, error) {
	if !obj.Enabled {
		return nil, nil, fmt.Errorf("opt: objective disabled")
	}
	if env.CPU == nil {
		return nil, nil, fmt.Errorf("opt: environment has no CPU model")
	}
	if env.MaxParallelism < 1 {
		env.MaxParallelism = 1
	}
	if n := env.CPU.Config().Cores; env.MaxParallelism > n {
		env.MaxParallelism = n
	}
	e := newEst(lg, env)
	base = lg.Complete(base)

	sharedOpts := []bool{false, true}[:1]
	if env.SharedConcurrency > 1 {
		sharedOpts = sharedOpts[:2]
	}

	n := len(lg.Tables)
	best := &Choice{Objective: obj, Phys: plan.PhysChoices{JoinOrder: make([]int, n), BuildLeft: make([]bool, max(n-1, 0))}}
	bestScore := math.Inf(1)
	consider := func(order []int, builds []bool, pd plan.Pushdown) {
		c, outRows, ok := e.planCycles(order, builds, pd, false)
		if !ok {
			return
		}
		for _, shared := range sharedOpts {
			for par := 1; par <= env.MaxParallelism; par++ {
				secs, joules := e.timeEnergy(c, env.OverheadCycles, par, shared)
				score := obj.score(secs, joules)
				if score < bestScore-1e-12 {
					bestScore = score
					copy(best.Phys.JoinOrder, order)
					copy(best.Phys.BuildLeft, builds)
					best.Phys.Pushdown, best.Parallelism, best.Shared = pd, par, shared
					best.EstSeconds, best.EstJoules, best.EstRows = secs, joules, outRows
				}
			}
		}
	}

	// The base shape first: ties go to the hand-lowered plan.
	for _, pd := range [2]plan.Pushdown{base.Pushdown, otherPushdown(base.Pushdown)} {
		consider(base.JoinOrder, base.BuildLeft, pd)
	}
	if e.orderFree() {
		pinned := -1
		if e.pinFinalProbe() {
			pinned = spineTable(base.JoinOrder, base.BuildLeft)
		}
		// The DP generates candidate shapes under full pushdown (its
		// frontier is only a candidate generator — consider re-costs every
		// shape exactly), then each shape is scored under both pushdowns.
		e.enumerateShapes(pinned, func(order []int, builds []bool) {
			if slices.Equal(order, base.JoinOrder) && slices.Equal(builds, base.BuildLeft) {
				return
			}
			for _, pd := range [2]plan.Pushdown{plan.PushdownAll, plan.PushdownBase} {
				consider(order, builds, pd)
			}
		})
	}
	if best.Parallelism == 0 { // no shape lowers
		return e, nil, fmt.Errorf("opt: no executable plan for %s", lg.Describe())
	}
	return e, best, nil
}

func otherPushdown(p plan.Pushdown) plan.Pushdown {
	if p == plan.PushdownAll {
		return plan.PushdownBase
	}
	return plan.PushdownAll
}

// spineTable returns the base table whose heap order the plan's output
// stream follows: walking joins top-down, output order follows the probe
// side; the spine is the first probe-side leaf encountered, or the
// starting table when every join builds its leaf.
func spineTable(order []int, builds []bool) int {
	for i := len(builds) - 1; i >= 0; i-- {
		if builds[i] {
			return order[i+1]
		}
	}
	return order[0]
}

// orderFree reports whether join orders beyond the base may be explored
// at all: only aggregating queries absorb row order into a hash table,
// and LIMIT makes even aggregated output prefix-sensitive.
func (e *est) orderFree() bool {
	return e.lg.Agg != nil && e.lg.Limit < 0 && len(e.lg.Tables) > 1
}

// pinFinalProbe reports whether candidates must keep the base shape's
// probe spine. Always true for aggregating queries: the hash aggregate
// emits groups in first-seen order and SUM/AVG accumulate floats in
// arrival order, both of which follow the final probe stream — keeping
// the spine (with key-unique build sides, as TPC-H's PK joins are) keeps
// results byte-identical across every admitted shape.
func (e *est) pinFinalProbe() bool {
	return e.lg.Agg != nil
}

// cand is one enumeration candidate: a left-deep join prefix over its
// frontier's table subset with its accumulated cost. Its shape is packed
// as the step that made it — table t joined, building the left side when
// build is set — and the candidate it extended, entry at of frontier from
// (from < 0 for a leaf), so a candidate is one fixed-size value at any
// table count.
type cand struct {
	rows     float64
	c        cycles
	from, at int32
	t        int32
	build    bool
}

// frontier is one table subset's Pareto frontier, with room for the
// candidate that overflows it.
type frontier struct {
	set plan.TableSet
	n   int
	c   [maxCandsPerSet + 1]cand
}

// enumerateShapes runs a Selinger-style dynamic program over connected
// table subsets, keeping a Pareto frontier of candidates per subset (no
// scalar cost exists before the objective is applied — a shape can win on
// compute cycles and lose on stalls, and both latency and joules are
// monotone in the five cycle buckets, so frontier pruning is safe for
// every objective, access path and parallelism scored later). It passes
// every shape of the full set's frontier to yield, in buffers the next
// shape overwrites.
//
// pinned ≥ 0 names a table that must join last, probed (builds final =
// true) — the spine constraint for float-aggregating queries.
//
// The DP costs candidates under full pushdown; the caller re-costs every
// returned shape under each admissible pushdown depth.
func (e *est) enumerateShapes(pinned int, yield func(order []int, builds []bool)) {
	n := len(e.lg.Tables)
	full := plan.TableSet(0)
	for t := 0; t < n; t++ {
		if t == pinned {
			continue
		}
		full = full.With(t)
		f := e.slot(plan.TableSet(0).With(t))
		leaf := e.scans[2*t+1]
		e.fronts[f].c[0], e.fronts[f].n = cand{rows: leaf.rows, c: leaf.cyc, from: -1, t: int32(t)}, 1
		e.sets = append(e.sets, e.fronts[f].set)
	}

	// Expand subsets in increasing numeric order. A subset's predecessors
	// (it less one table) are smaller, so each frontier is final before it
	// grows, and receives its candidates predecessor by predecessor in
	// ascending order, as a size-by-size sweep of sorted subsets gives them.
	for i := 0; i < len(e.sets); i++ {
		s := e.sets[i]
		fs := e.slot(s)
		for t := 0; t < n; t++ {
			if s.Has(t) || t == pinned {
				continue
			}
			key, residual, ok := e.lg.JoinStep(e.conj[:0], s, t, true)
			if e.conj = residual; !ok {
				continue
			}
			next := s.With(t)
			fk := e.slot(next)
			if e.fronts[fk].n == 0 {
				at, _ := slices.BinarySearch(e.sets, next)
				e.sets = slices.Insert(e.sets, at, next)
			}
			leaf := e.scans[2*t+1]
			for ci := range e.fronts[fs].n {
				cd := e.fronts[fs].c[ci]
				for _, build := range [2]bool{true, false} {
					j := e.join(key, residual, cd.rows, leaf.rows, build)
					nc := cand{rows: j.rows, c: cd.c, from: fs, at: int32(ci), t: int32(t), build: build}
					nc.c.addAll(leaf.cyc)
					nc.c.addAll(j.c)
					e.fronts[fk].insert(nc)
				}
			}
		}
	}

	if pinned >= 0 {
		_, residual, ok := e.lg.JoinStep(e.conj[:0], full, pinned, true)
		if e.conj = residual; !ok {
			return
		}
	}
	f := e.slot(full)
	for i := range e.fronts[f].n {
		order, builds := e.shape(f, int32(i))
		if pinned >= 0 { // build the dims, probe the spine
			order, builds = append(order, pinned), append(builds, true)
		}
		yield(order, builds)
	}
}

// slot returns the index of set's frontier, creating an empty one on first
// use.
func (e *est) slot(set plan.TableSet) int32 {
	if s, ok := e.slots[set]; ok {
		return s
	}
	s := int32(len(e.fronts))
	e.fronts = append(e.fronts, frontier{set: set})
	e.slots[set] = s
	return s
}

// shape decodes entry i of frontier f into the estimate's shape buffers,
// following each candidate back to the one it extended.
func (e *est) shape(f, i int32) ([]int, []bool) {
	k := e.fronts[f].set.Count()
	order, builds := e.order[:k], e.builds[:k-1]
	for f >= 0 {
		cd := &e.fronts[f].c[i]
		k--
		order[k] = int(cd.t)
		if k > 0 {
			builds[k-1] = cd.build
		}
		f, i = cd.from, cd.at
	}
	return order, builds
}

// joinEst is one priced join step.
type joinEst struct {
	key       int // the hash-key conjunct
	residuals int
	rows      float64 // output rows, after the residual
	c         cycles
}

// join prices the hash join that adds a table (leafRows rows from its scan)
// to a prefix yielding setRows rows, with the key conjunct and residual
// the plan's placement rule puts there (plan.Logical.JoinStep).
func (e *est) join(key int, residual []int, setRows, leafRows float64, buildLeft bool) joinEst {
	matches := max(setRows*leafRows*e.conjSel[key], minRows)
	rows := matches
	for _, i := range residual {
		rows *= e.conjSel[i]
	}
	buildRows, probeRows := setRows, leafRows
	if !buildLeft {
		buildRows, probeRows = leafRows, setRows
	}
	return joinEst{
		key:       key,
		residuals: len(residual),
		rows:      max(rows, minRows),
		c:         e.joinCost(buildRows, probeRows, matches, residual),
	}
}

// insert adds a candidate to the frontier, dropping dominated entries (and
// the newcomer if dominated).
func (f *frontier) insert(nc cand) {
	for _, o := range f.c[:f.n] {
		if nc.c.dominatedBy(o.c) {
			return
		}
	}
	keep := f.c[:0]
	for _, o := range f.c[:f.n] {
		if !o.c.dominatedBy(nc.c) {
			keep = append(keep, o)
		}
	}
	keep = append(keep, nc)
	if len(keep) > maxCandsPerSet {
		// Deterministic overflow: keep the lowest total-cycle candidates,
		// sorted by an insertion sort, so ties keep their arrival order.
		for i := 1; i < len(keep); i++ {
			for j := i; j > 0 && keep[j].c.total() < keep[j-1].c.total(); j-- {
				keep[j], keep[j-1] = keep[j-1], keep[j]
			}
		}
		keep = keep[:maxCandsPerSet]
	}
	f.n = len(keep)
}

// opEst annotates one operator for EXPLAIN: its kind, estimated output
// rows, estimated cycles (amplification excluded; applied at conversion),
// and what its label names (appendDesc): a scan's table and whether it
// filters; a join's key conjunct, build side and residual count; a
// filter's conjunct.
type opEst struct {
	kind      obsv.Kind
	rows      float64
	cyc       cycles
	table     int
	conj      int
	residuals int
	flag      bool
}

// planCycles prices one candidate shape step by step, each step's
// conjuncts placed by the plan's rule, accumulating estimated cycles. With
// collect it also records in e.ops the per-operator estimates EXPLAIN
// renders. ok is false when the shape does not lower (no equi edge joins
// some table to its predecessors).
func (e *est) planCycles(order []int, builds []bool, pd plan.Pushdown, collect bool) (_ cycles, rows float64, ok bool) {
	lg := e.lg
	if len(order) != len(lg.Tables) || len(builds) != len(lg.Tables)-1 {
		return cycles{}, 0, false
	}
	var total cycles
	e.ops = e.ops[:0]
	record := func(op opEst) {
		if collect {
			e.ops = append(e.ops, op)
		}
	}
	scan := func(i int) float64 {
		s := e.scans[2*order[i]]
		if pd.Pushes(i) {
			s = e.scans[2*order[i]+1]
		}
		total.addAll(s.cyc)
		record(s)
		return s.rows
	}

	curRows := scan(0)
	curSet := plan.TableSet(0).With(order[0])
	for step, t := range order[1:] {
		leafRows := scan(step + 1)
		key, residual, ok := lg.JoinStep(e.conj[:0], curSet, t, pd.Pushes(step+1))
		if e.conj = residual; !ok {
			return cycles{}, 0, false
		}
		j := e.join(key, residual, curRows, leafRows, builds[step])
		total.addAll(j.c)
		record(opEst{kind: obsv.KindJoin, rows: j.rows, cyc: j.c, conj: j.key, residuals: j.residuals, flag: builds[step]})
		curRows, curSet = j.rows, curSet.With(t)
	}

	e.conj = lg.FilterConjuncts(e.conj[:0])
	for _, i := range e.conj {
		fc := e.evalCost(curRows, lg.Conjuncts[i].Pred)
		total.addAll(fc)
		curRows = max(curRows*e.conjSel[i], minRows)
		record(opEst{kind: obsv.KindFilter, rows: curRows, cyc: fc, conj: i})
	}

	if lg.Agg != nil {
		groups := e.groupCount(curRows)
		ac := e.aggCost(curRows, groups)
		total.addAll(ac)
		record(opEst{kind: obsv.KindAgg, rows: groups, cyc: ac})
		curRows = groups
	}
	if lg.Project != nil {
		pc := e.evalCost(curRows, lg.Project.Exprs...)
		total.addAll(pc)
		record(opEst{kind: obsv.KindProject, rows: curRows, cyc: pc})
	}
	if len(lg.Sort) > 0 {
		sc := e.sortCost(curRows)
		total.addAll(sc)
		record(opEst{kind: obsv.KindSort, rows: curRows, cyc: sc})
	}
	if lg.Limit >= 0 && float64(lg.Limit) < curRows {
		curRows = float64(lg.Limit)
		record(opEst{kind: obsv.KindLimit, rows: curRows})
	}
	rc := e.resultCost(curRows)
	total.addAll(rc)
	record(opEst{kind: obsv.KindResult, rows: curRows, cyc: rc})

	return total, curRows, true
}
