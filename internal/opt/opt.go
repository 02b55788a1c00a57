package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ecodb/internal/exec"
	"ecodb/internal/expr"
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
	if !obj.Enabled {
		return nil, fmt.Errorf("opt: objective disabled")
	}
	if env.CPU == nil {
		return nil, fmt.Errorf("opt: environment has no CPU model")
	}
	if env.MaxParallelism < 1 {
		env.MaxParallelism = 1
	}
	if n := env.CPU.Config().Cores; env.MaxParallelism > n {
		env.MaxParallelism = n
	}
	e := newEst(lg, env)

	if base.JoinOrder == nil || base.BuildLeft == nil {
		def := lg.DefaultChoices()
		if base.JoinOrder == nil {
			base.JoinOrder = def.JoinOrder
		}
		if base.BuildLeft == nil {
			base.BuildLeft = def.BuildLeft
		}
	}

	sharedOpts := []bool{false}
	if env.SharedConcurrency > 1 {
		sharedOpts = append(sharedOpts, true)
	}

	var best *Choice
	bestScore := math.Inf(1)
	consider := func(order []int, builds []bool, pd plan.Pushdown) {
		c, outRows, _, ok := e.planCycles(order, builds, pd, false)
		if !ok {
			return
		}
		for _, shared := range sharedOpts {
			for par := 1; par <= env.MaxParallelism; par++ {
				secs, joules := e.timeEnergy(c, par, shared)
				score := obj.score(secs, joules)
				if score < bestScore-1e-12 {
					bestScore = score
					best = &Choice{
						Phys: plan.PhysChoices{
							JoinOrder: append([]int{}, order...),
							BuildLeft: append([]bool{}, builds...),
							Pushdown:  pd,
						},
						Parallelism: par,
						Shared:      shared,
						Objective:   obj,
						EstSeconds:  secs,
						EstJoules:   joules,
						EstRows:     outRows,
					}
				}
			}
		}
	}

	// The base shape first: ties go to the hand-lowered plan.
	for _, pd := range []plan.Pushdown{base.Pushdown, otherPushdown(base.Pushdown)} {
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
		for _, sh := range e.enumerateShapes(pinned) {
			if sameShape(sh.order, sh.builds, base.JoinOrder, base.BuildLeft) {
				continue
			}
			for _, pd := range []plan.Pushdown{plan.PushdownAll, plan.PushdownBase} {
				consider(sh.order, sh.builds, pd)
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no executable plan for %s", lg.Describe())
	}
	return best, nil
}

func otherPushdown(p plan.Pushdown) plan.Pushdown {
	if p == plan.PushdownAll {
		return plan.PushdownBase
	}
	return plan.PushdownAll
}

func sameShape(ao []int, ab []bool, bo []int, bb []bool) bool {
	if len(ao) != len(bo) || len(ab) != len(bb) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
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

type shape struct {
	order  []int
	builds []bool
}

// cand is one enumeration candidate: a left-deep join prefix over a table
// subset with its accumulated cost. Cardinality is shared per subset.
type cand struct {
	set    plan.TableSet
	order  []int
	builds []bool
	rows   float64
	c      cycles
}

// enumerateShapes runs a Selinger-style dynamic program over connected
// table subsets, keeping a Pareto frontier of candidates per subset (no
// scalar cost exists before the objective is applied — a shape can win on
// compute cycles and lose on stalls, and both latency and joules are
// monotone in the five cycle buckets, so frontier pruning is safe for
// every objective, access path and parallelism scored later).
//
// pinned ≥ 0 names a table that must join last, probed (builds final =
// true) — the spine constraint for float-aggregating queries.
//
// The DP costs candidates under full pushdown; the caller re-costs every
// returned shape under each admissible pushdown depth.
func (e *est) enumerateShapes(pinned int) []shape {
	lg := e.lg
	n := len(lg.Tables)

	adj := make([]plan.TableSet, n)
	for i, c := range lg.Conjuncts {
		if !c.EquiJoin {
			continue
		}
		lt, rt := e.conjLeft[i], e.conjRight[i]
		adj[lt] = adj[lt].With(rt)
		adj[rt] = adj[rt].With(lt)
	}

	// Leaf scans are shape-independent; cost each table once.
	leafRows := make([]float64, n)
	leafCyc := make([]cycles, n)
	for t := 0; t < n; t++ {
		leafRows[t], leafCyc[t] = e.scanCost(t, e.singlePreds(t))
	}

	grow := n // tables the DP grows over
	if pinned >= 0 {
		grow = n - 1 // the pinned spine joins in a fixed final step
	}

	dp := make(map[plan.TableSet][]cand)
	for t := 0; t < n; t++ {
		if pinned >= 0 && t == pinned {
			continue
		}
		set := plan.TableSet(0).With(t)
		dp[set] = []cand{{set: set, order: []int{t}, builds: nil, rows: leafRows[t], c: leafCyc[t]}}
	}

	// Expand subsets in increasing size so every predecessor exists.
	for size := 1; size < grow; size++ {
		subsets := make([]plan.TableSet, 0, len(dp))
		for s := range dp {
			if s.Count() == size {
				subsets = append(subsets, s)
			}
		}
		sort.Slice(subsets, func(i, j int) bool { return subsets[i] < subsets[j] })
		for _, s := range subsets {
			for t := 0; t < n; t++ {
				if s.Has(t) || (pinned >= 0 && t == pinned) || adj[t]&s == 0 {
					continue
				}
				key := s.With(t)
				for _, cd := range dp[s] {
					for _, buildLeft := range []bool{true, false} {
						nc, ok := e.expand(cd, t, leafRows[t], leafCyc[t], buildLeft)
						if !ok {
							continue
						}
						dp[key] = paretoInsert(dp[key], nc)
					}
				}
			}
		}
	}

	var out []shape
	if pinned >= 0 {
		full := plan.TableSet(0)
		for t := 0; t < n; t++ {
			if t != pinned {
				full = full.With(t)
			}
		}
		for _, cd := range dp[full] {
			if adj[pinned]&full == 0 {
				break
			}
			// Build the dims, probe the spine.
			nc, ok := e.expand(cd, pinned, leafRows[pinned], leafCyc[pinned], true)
			if !ok {
				continue
			}
			out = append(out, shape{order: nc.order, builds: nc.builds})
		}
		return out
	}
	full := plan.TableSet(0)
	for t := 0; t < n; t++ {
		full = full.With(t)
	}
	for _, cd := range dp[full] {
		out = append(out, shape{order: cd.order, builds: cd.builds})
	}
	return out
}

// singlePreds lists table t's single-table conjunct predicates.
func (e *est) singlePreds(t int) []expr.Expr {
	only := plan.TableSet(0).With(t)
	var preds []expr.Expr
	for _, c := range e.lg.Conjuncts {
		if c.Tables == only {
			preds = append(preds, c.Pred)
		}
	}
	return preds
}

// expand grows a candidate by joining table t, mirroring one Lower step.
// leafRows/leafC are t's cached scan cost under full pushdown.
func (e *est) expand(cd cand, t int, leafRows float64, leafC cycles, buildLeft bool) (cand, bool) {
	_, residuals, matches, outRows, ok := e.joinStep(cd.set, cd.rows, t, leafRows, plan.PushdownAll)
	if !ok {
		return cand{}, false
	}

	buildRows, probeRows := cd.rows, leafRows
	if !buildLeft {
		buildRows, probeRows = leafRows, cd.rows
	}

	nc := cand{
		set:    cd.set.With(t),
		order:  append(append([]int{}, cd.order...), t),
		builds: append(append([]bool{}, cd.builds...), buildLeft),
		rows:   outRows,
		c:      cd.c,
	}
	nc.c.addAll(leafC)
	nc.c.addAll(e.joinCost(buildRows, probeRows, matches, residuals))
	return nc, true
}

// joinStep resolves the hash key and residual conjuncts for joining table
// t onto subset set, returning the pre-residual match count and the
// post-residual output cardinality.
func (e *est) joinStep(set plan.TableSet, setRows float64, t int, leafRows float64, pd plan.Pushdown) (keyIdx int, residuals []expr.Expr, matches, outRows float64, ok bool) {
	lg := e.lg
	newSet := set.With(t)
	keyIdx = -1
	for i, c := range lg.Conjuncts {
		if !c.EquiJoin || !c.Tables.SubsetOf(newSet) || c.Tables.SubsetOf(set) {
			continue
		}
		lt, rt := e.conjLeft[i], e.conjRight[i]
		if (set.Has(lt) && rt == t) || (set.Has(rt) && lt == t) {
			keyIdx = i
			break
		}
	}
	if keyIdx < 0 {
		return -1, nil, 0, 0, false
	}
	matches = setRows * leafRows * e.conjSel[keyIdx]
	outRows = matches
	only := plan.TableSet(0).With(t)
	for i, c := range lg.Conjuncts {
		if i == keyIdx || !c.Tables.SubsetOf(newSet) || c.Tables.SubsetOf(set) {
			continue
		}
		if c.Tables == only && pd == plan.PushdownAll {
			continue // pushed into the leaf scan, already applied
		}
		residuals = append(residuals, c.Pred)
		outRows *= e.conjSel[i]
	}
	return keyIdx, residuals, max(matches, minRows), max(outRows, minRows), true
}

// paretoInsert adds a candidate to a subset's frontier, dropping
// dominated entries (and the newcomer if dominated).
func paretoInsert(frontier []cand, nc cand) []cand {
	for _, f := range frontier {
		if nc.c.dominatedBy(f.c) {
			return frontier
		}
	}
	keep := frontier[:0]
	for _, f := range frontier {
		if !f.c.dominatedBy(nc.c) {
			keep = append(keep, f)
		}
	}
	keep = append(keep, nc)
	if len(keep) > maxCandsPerSet {
		// Deterministic overflow: keep the lowest total-cycle candidates.
		sort.Slice(keep, func(i, j int) bool {
			return keep[i].c.total() < keep[j].c.total()
		})
		keep = keep[:maxCandsPerSet]
	}
	return keep
}

// opEst annotates one operator for EXPLAIN: its description, estimated
// output rows, and estimated cycles (amplification excluded; applied at
// conversion).
type opEst struct {
	kind obsv.Kind
	desc string
	rows float64
	cyc  cycles
	// scanTable is ≥ 0 for scan leaves (index into lg.Tables).
	scanTable int
}

// planCycles walks one candidate shape exactly as plan.Lower would build
// it, accumulating estimated cycles. With collect it also records the
// per-operator estimates EXPLAIN renders. ok is false when the shape does
// not lower (no equi edge joins some table to its predecessors).
func (e *est) planCycles(order []int, builds []bool, pd plan.Pushdown, collect bool) (cycles, float64, []opEst, bool) {
	lg := e.lg
	if len(order) != len(lg.Tables) || len(builds) != len(lg.Tables)-1 {
		return cycles{}, 0, nil, false
	}
	var total cycles
	var ops []opEst
	// record is only invoked under collect so the desc strings (fmt-built)
	// cost nothing on the optimizer's hot enumeration path.
	record := func(kind obsv.Kind, desc string, rows float64, c cycles, scanTable int) {
		ops = append(ops, opEst{kind: kind, desc: desc, rows: rows, cyc: c, scanTable: scanTable})
	}

	placed := make([]bool, len(lg.Conjuncts))
	takeSingles := func(t int) (preds []expr.Expr) {
		only := plan.TableSet(0).With(t)
		for i, c := range lg.Conjuncts {
			if placed[i] || c.Tables != only {
				continue
			}
			preds = append(preds, c.Pred)
			placed[i] = true
		}
		return preds
	}

	t0 := order[0]
	pushed := takeSingles(t0)
	curRows, c0 := e.scanCost(t0, pushed)
	total.addAll(c0)
	if collect {
		record(obsv.KindScan, scanDesc(lg, t0, len(pushed) > 0), curRows, c0, t0)
	}
	curSet := plan.TableSet(0).With(t0)

	for step, t := range order[1:] {
		var leafPreds []expr.Expr
		if pd == plan.PushdownAll {
			leafPreds = takeSingles(t)
		}
		leafRows, leafC := e.scanCost(t, leafPreds)
		total.addAll(leafC)
		if collect {
			record(obsv.KindScan, scanDesc(lg, t, len(leafPreds) > 0), leafRows, leafC, t)
		}
		newSet := curSet.With(t)

		keyIdx := -1
		for i, c := range lg.Conjuncts {
			if placed[i] || !c.EquiJoin {
				continue
			}
			lt, rt := lg.TableOf(c.LeftCol), lg.TableOf(c.RightCol)
			if (curSet.Has(lt) && rt == t) || (curSet.Has(rt) && lt == t) {
				keyIdx = i
				break
			}
		}
		if keyIdx < 0 {
			return cycles{}, 0, nil, false
		}
		placed[keyIdx] = true
		matches := max(curRows*leafRows*e.conjunctSel(lg.Conjuncts[keyIdx]), minRows)

		var residuals []expr.Expr
		outRows := matches
		for i, c := range lg.Conjuncts {
			if placed[i] || !c.Tables.SubsetOf(newSet) {
				continue
			}
			residuals = append(residuals, c.Pred)
			outRows *= e.conjunctSel(c)
			placed[i] = true
		}
		outRows = max(outRows, minRows)

		buildRows, probeRows := curRows, leafRows
		if !builds[step] {
			buildRows, probeRows = leafRows, curRows
		}
		jc := e.joinCost(buildRows, probeRows, matches, residuals)
		total.addAll(jc)
		if collect {
			record(obsv.KindJoin, joinDesc(lg, keyIdx, builds[step], len(residuals)), outRows, jc, -1)
		}
		curRows, curSet = outRows, newSet
	}

	// Unplaced conjuncts become Filters in Lower; cost them the same way.
	for i, c := range lg.Conjuncts {
		if placed[i] {
			continue
		}
		fc := e.evalCost(curRows, c.Pred)
		total.addAll(fc)
		curRows = max(curRows*e.sel(c.Pred), minRows)
		if collect {
			record(obsv.KindFilter, fmt.Sprintf("Filter(%s)", c.Pred), curRows, fc, -1)
		}
		placed[i] = true
	}

	if lg.Agg != nil {
		groups := e.groupCount(curRows)
		ac := e.aggCost(curRows, groups)
		total.addAll(ac)
		if collect {
			record(obsv.KindAgg, aggDesc(lg), groups, ac, -1)
		}
		curRows = groups
	}
	if lg.Project != nil {
		pc := e.evalCost(curRows, lg.Project.Exprs...)
		total.addAll(pc)
		if collect {
			record(obsv.KindProject, fmt.Sprintf("Project(%d exprs)", len(lg.Project.Exprs)), curRows, pc, -1)
		}
	}
	if len(lg.Sort) > 0 {
		sc := e.sortCost(curRows)
		total.addAll(sc)
		if collect {
			record(obsv.KindSort, fmt.Sprintf("Sort(%d keys)", len(lg.Sort)), curRows, sc, -1)
		}
	}
	if lg.Limit >= 0 && float64(lg.Limit) < curRows {
		curRows = float64(lg.Limit)
		if collect {
			record(obsv.KindLimit, fmt.Sprintf("Limit(%d)", lg.Limit), curRows, cycles{}, -1)
		}
	}
	rc := e.resultCost(curRows)
	total.addAll(rc)
	if collect {
		record(obsv.KindResult, "Result", curRows, rc, -1)
	}

	return total, curRows, ops, true
}

func scanDesc(lg *plan.Logical, t int, filtered bool) string {
	if filtered {
		return fmt.Sprintf("Scan(%s, filtered)", lg.Tables[t].Name)
	}
	return fmt.Sprintf("Scan(%s)", lg.Tables[t].Name)
}

func joinDesc(lg *plan.Logical, keyIdx int, buildLeft bool, residuals int) string {
	c := lg.Conjuncts[keyIdx]
	side := "build=left"
	if !buildLeft {
		side = "build=right"
	}
	d := fmt.Sprintf("HashJoin(%s = %s, %s", qualCol(lg, c.LeftCol), qualCol(lg, c.RightCol), side)
	if residuals > 0 {
		d += fmt.Sprintf(", %d residuals", residuals)
	}
	return d + ")"
}

func aggDesc(lg *plan.Logical) string {
	return fmt.Sprintf("Agg(%d group cols, %d aggs)", len(lg.Agg.GroupBy), len(lg.Agg.Specs))
}

// qualCol renders a global column id as table.column.
func qualCol(lg *plan.Logical, g int) string {
	return lg.Tables[lg.TableOf(g)].Name + "." + lg.ColName(g)
}
