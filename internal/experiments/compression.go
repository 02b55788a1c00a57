package experiments

import (
	"fmt"
	"strings"
	"time"

	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/obsv"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// CompressionBands is how many order-key range queries the ablation's mixed
// workload carries alongside the fixed string selections.
const CompressionBands = 8

// CompressionResult is the compressed-storage ablation: the mixed
// range-plus-string workload replayed on plain storage versus with zone-map
// pruning and dictionary-encoded strings enabled. It is NOT
// charging-neutral — skipping a page really does
// avoid its buffer-pool, streaming, and per-tuple charges (replacing them
// with one zone-map consult), so the simulated joules and durations drop.
// Query results must still be bit-identical: compression changes where
// bytes live and which pages are touched, never what a query returns.
type CompressionResult struct {
	Config  Config
	Queries int
	// Wall-clock per arm (real Go time, best of ProtocolRuns).
	BaseWall, CompWall time.Duration
	// Simulated workload time and per-query CPU joules per arm (first run).
	BaseTime, CompTime         sim.Duration
	BasePerQuery, CompPerQuery energy.Joules
	// PagesPruned is how many heap pages the compressed arm skipped by zone
	// maps across the whole workload (0 in the baseline by construction).
	PagesPruned int64
	// RowsIdentical is the correctness gate: every query returned the same
	// cardinality in both arms.
	RowsIdentical bool
}

// Compression runs the compressed-storage ablation on the commercial
// profile: fresh system per arm (background-I/O randomness advances with
// every page read, so only from-boot replays compare), with the treated arm
// loading dictionary-encoded tables and scanning under zone-map pruning.
func Compression(cfg Config) CompressionResult {
	res := CompressionResult{Config: cfg}

	arm := func(compressed bool) (wall time.Duration, simT sim.Duration, perQ energy.Joules, rows []int64, pruned int64) {
		// Pruning is the engine's choice (its profile); dictionary encoding
		// is a property of the tables it is loaded with.
		prof := engine.ProfileCommercial()
		prof.ZoneMapPruning = compressed
		tables := []string{tpch.Customer, tpch.Orders, tpch.Lineitem}
		sys := cfg.system(prof, tables...)
		if compressed {
			for _, name := range tables {
				sys.Engine.MustTable(name).Heap.CompressStrings()
			}
		}
		clock := sys.Machine.Clock
		trace := sys.Machine.CPU.Trace()
		queries := workload.NewQueries("comp",
			tpch.CompressionWorkload(sys.Engine.Catalog(), cfg.SF, CompressionBands))
		res.Queries = len(queries)

		pruned0 := obsv.PagesPruned.Load()
		for rep := range sys.Runs {
			t0 := clock.Now()
			w0 := time.Now()
			r := workload.RunSequential(sys.Engine, clock, queries)
			w := time.Since(w0)
			if rep == 0 || w < wall {
				wall = w
			}
			if rep == 0 {
				simT = clock.Now().Sub(t0)
				perQ = energy.PerQuery(trace.Energy(t0, clock.Now()), len(queries))
				pruned = obsv.PagesPruned.Load() - pruned0
				for _, q := range r.Queries {
					rows = append(rows, q.Rows)
				}
			}
		}
		return wall, simT, perQ, rows, pruned
	}

	baseWall, baseT, baseJ, baseRows, _ := arm(false)
	compWall, compT, compJ, compRows, pruned := arm(true)

	res.BaseWall, res.CompWall = baseWall, compWall
	res.BaseTime, res.CompTime = baseT, compT
	res.BasePerQuery, res.CompPerQuery = baseJ, compJ
	res.PagesPruned = pruned
	res.RowsIdentical = len(baseRows) == len(compRows)
	for i := range baseRows {
		if i >= len(compRows) || baseRows[i] != compRows[i] {
			res.RowsIdentical = false
			break
		}
	}
	return res
}

// JouleSavingPct returns the per-query simulated-energy saving of the
// compressed arm as a percentage of the baseline.
func (r CompressionResult) JouleSavingPct() float64 {
	if r.BasePerQuery == 0 {
		return 0
	}
	return (1 - float64(r.CompPerQuery)/float64(r.BasePerQuery)) * 100
}

func (r CompressionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compressed-storage ablation (%s)\n", r.Config)
	fmt.Fprintf(&b, "  %d-query mixed workload (order-key ranges + status/segment selections), treated arm: zone-map pruning + dictionary strings\n\n",
		r.Queries)
	fmt.Fprintf(&b, "  %-12s %14s %14s %14s\n", "arm", "wall", "sim time", "J/query")
	fmt.Fprintf(&b, "  %-12s %14v %14v %14v\n", "baseline",
		r.BaseWall.Round(time.Microsecond), r.BaseTime, r.BasePerQuery)
	fmt.Fprintf(&b, "  %-12s %14v %14v %14v\n", "compressed",
		r.CompWall.Round(time.Microsecond), r.CompTime, r.CompPerQuery)
	rowsOK := "yes"
	if !r.RowsIdentical {
		rowsOK = "NO (BUG)"
	}
	fmt.Fprintf(&b, "\n  pages pruned: %d   J/query saving: %.1f%%   results identical: %s\n",
		r.PagesPruned, r.JouleSavingPct(), rowsOK)
	b.WriteString("\n  Pruned pages cost one zone-map consult instead of a buffer-pool access,\n")
	b.WriteString("  a page stream, and per-tuple interpretation — the simulated joules drop\n")
	b.WriteString("  because the engine genuinely does less work, not by accounting fiat.\n")
	return b.String()
}
