package experiments

import (
	"fmt"
	"strings"

	"ecodb/internal/core"
	"ecodb/internal/energy"
	"ecodb/internal/engine"
	"ecodb/internal/mqo"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
	"ecodb/internal/workload"
)

// Figure6Point is one batch size's sequential-vs-QED comparison.
type Figure6Point struct {
	BatchSize int

	SeqMeanResponse sim.Duration
	SeqEnergy       energy.Joules
	QEDMeanResponse sim.Duration
	QEDEnergy       energy.Joules

	// EnergyRatio and ResponseRatio are QED/sequential; EDPChange is the
	// relative change in (energy × mean response).
	EnergyRatio   float64
	ResponseRatio float64
	EDPChange     float64
}

// Figure6Result is the paper's QED study.
type Figure6Result struct {
	Config     Config
	Strategy   mqo.MergeStrategy
	SingleTime sim.Duration
	Points     []Figure6Point
}

// PaperFig6 holds the paper's §4 numbers: energy saving % and mean
// response-time increase % per batch size (45 is shown in the figure but
// not quoted in the text; the 54%/43% pair is the abstract's batch-50
// summary).
var PaperFig6 = map[int][2]float64{
	35: {46, 52},
	40: {51, 50},
	50: {54, 43},
}

// Figure6 reproduces the paper's Figure 6: the 2%-selectivity l_quantity
// selection workload on MySQL's MEMORY engine at stock settings, run
// sequentially versus QED-batched at sizes 35, 40, 45 and 50.
func Figure6(cfg Config) Figure6Result {
	return figure6(cfg, mqo.OrChain)
}

// Figure6HashSet runs the same study with the hash-set merge strategy —
// the smarter merged plan ecoDB adds beyond the paper (an ablation).
func Figure6HashSet(cfg Config) Figure6Result {
	return figure6(cfg, mqo.HashSet)
}

func figure6(cfg Config, strategy mqo.MergeStrategy) Figure6Result {
	sys := cfg.system(engine.ProfileMySQLMemory(), tpch.Lineitem)
	clock := sys.Machine.Clock
	trace := sys.Machine.CPU.Trace()

	// Single-query baseline for the delay analysis.
	t0 := clock.Now()
	workload.RunSequential(sys.Engine, clock,
		workload.NewQueries("single", tpch.QuantityWorkload(sys.Engine.Catalog(), 1)))
	single := clock.Now().Sub(t0)

	res := Figure6Result{Config: cfg, Strategy: strategy, SingleTime: single}

	for _, n := range []int{35, 40, 45, 50} {
		queries := workload.NewQueries("sel", tpch.QuantityWorkload(sys.Engine.Catalog(), n))

		// A run's Time is its mean per-query response (the paper's
		// Figure 6 metric); Reduce averages it with extremes dropped.
		seqRuns := make([]core.Measurement, sys.Runs)
		qedRuns := make([]core.Measurement, sys.Runs)
		for rep := range sys.Runs {
			t0 := clock.Now()
			seq := workload.RunSequential(sys.Engine, clock, queries)
			seqRuns[rep] = core.Measurement{
				Time: seq.MeanResponse(), CPUEnergy: sys.Sampler.Measure(trace, t0, clock.Now())}

			t1 := clock.Now()
			batch := core.RunQED(sys, queries, strategy)
			qedRuns[rep] = core.Measurement{
				Time: batch.MeanResponse(), CPUEnergy: sys.Sampler.Measure(trace, t1, clock.Now())}
		}
		seqRed, qedRed := core.Reduce(seqRuns), core.Reduce(qedRuns)
		seqE, seqMean := seqRed.CPUEnergy, seqRed.Time
		qedE, qedMean := qedRed.CPUEnergy, qedRed.Time

		eR := float64(qedE) / float64(seqE)
		tR := float64(qedMean) / float64(seqMean)
		res.Points = append(res.Points, Figure6Point{
			BatchSize:       n,
			SeqMeanResponse: seqMean,
			SeqEnergy:       seqE,
			QEDMeanResponse: qedMean,
			QEDEnergy:       qedE,
			EnergyRatio:     eR,
			ResponseRatio:   tR,
			EDPChange:       eR*tR - 1,
		})
	}
	return res
}

// Comparisons returns paper-vs-measured energy savings and response
// penalties for the quoted batch sizes.
func (r Figure6Result) Comparisons() []Comparison {
	var out []Comparison
	for _, p := range r.Points {
		paper, ok := PaperFig6[p.BatchSize]
		if !ok {
			continue
		}
		out = append(out,
			Comparison{
				Metric:   fmt.Sprintf("batch %d energy saving", p.BatchSize),
				Paper:    paper[0],
				Measured: -100 * (p.EnergyRatio - 1),
				Unit:     "%",
			},
			Comparison{
				Metric:   fmt.Sprintf("batch %d response-time increase", p.BatchSize),
				Paper:    paper[1],
				Measured: 100 * (p.ResponseRatio - 1),
				Unit:     "%",
			},
		)
	}
	return out
}

func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: QED on 2%%-selectivity l_quantity selections (%s, merge=%s)\n",
		r.Config, r.Strategy)
	fmt.Fprintf(&b, "  single query: %v\n", r.SingleTime)
	fmt.Fprintf(&b, "  %-6s %14s %12s %14s %12s %9s %9s %8s\n",
		"batch", "seq mean resp", "seq energy", "qed mean resp", "qed energy", "energy×", "resp×", "EDP")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-6d %14v %12v %14v %12v %9.3f %9.3f %+7.1f%%\n",
			p.BatchSize, p.SeqMeanResponse, p.SeqEnergy, p.QEDMeanResponse, p.QEDEnergy,
			p.EnergyRatio, p.ResponseRatio, p.EDPChange*100)
	}
	b.WriteString("\nPaper vs measured:\n")
	renderComparisons(&b, r.Comparisons())
	return b.String()
}
