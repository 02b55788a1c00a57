// Command ecodb regenerates the paper's tables and figures on the
// simulated system under test, and serves the engine over HTTP.
//
// Usage:
//
//	ecodb [flags] <experiment>...
//	ecodb serve [flags]
//
// `ecodb -help` lists the experiments and flags. The serve subcommand
// starts the multi-tenant query server (see docs/OPERATIONS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"ecodb/internal/experiments"
	"ecodb/internal/obsv"
)

var (
	flagSF      = flag.Float64("sf", 0, "generated TPC-H scale factor override (0 = experiment default)")
	flagAmp     = flag.Float64("amp", 0, "work amplification override (0 = experiment default)")
	flagRuns    = flag.Int("runs", 0, "measurement repetitions per point (0 = experiment default)")
	flagSeed    = flag.Uint64("seed", 0, "data-generation seed (0 = experiment default)")
	flagMetrics = flag.String("metrics", "", "dump the engine metrics registry after all experiments: text or json")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// The query-server subcommand owns its flags; see serve.go.
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "ecodb:", err)
			if _, usage := err.(usageError); usage {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	for _, name := range args {
		if name == "all" {
			runAll()
			continue
		}
		if err := runOne(name); err != nil {
			fmt.Fprintln(os.Stderr, "ecodb:", err)
			os.Exit(1)
		}
	}
	if err := dumpMetrics(*flagMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "ecodb:", err)
		os.Exit(1)
	}
}

// dumpMetrics prints the process-wide metrics registry — every engine the
// experiments built shares it — in the requested format.
func dumpMetrics(format string) error {
	switch format {
	case "":
		return nil
	case "text":
		fmt.Println("engine metrics:")
		fmt.Print(obsv.Default().Snapshot().Text())
	case "json":
		fmt.Print(obsv.Default().Snapshot().JSON())
	default:
		return fmt.Errorf("unknown -metrics format %q (want text or json)", format)
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: ecodb [flags] <experiment>...\n\nexperiments:\n")
	var all []string
	for _, x := range experimentList {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", x.name, x.help)
		if x.inAll {
			all = append(all, x.name)
		}
	}
	fmt.Fprintf(os.Stderr, `  all        every paper experiment (%s)

subcommands:
  serve      HTTP query server with admission control (ecodb serve -help)

flags:
`, strings.Join(all, " "))
	flag.PrintDefaults()
}

func override(cfg experiments.Config) experiments.Config {
	if *flagSF > 0 {
		cfg.SF = *flagSF
	}
	if *flagAmp > 0 {
		cfg.Amplification = *flagAmp
	}
	if *flagRuns > 0 {
		cfg.ProtocolRuns = *flagRuns
	}
	if *flagSeed != 0 {
		cfg.Seed = *flagSeed
	}
	return cfg
}

// experiment is one experiment ecodb regenerates: its name, its help line,
// whether `all` runs it, and what it prints.
type experiment struct {
	name, help string
	inAll      bool
	run        func() fmt.Stringer
}

// experimentList is every experiment, in help and `all` order.
var experimentList = []experiment{
	{"table1", "system power breakdown (paper Table 1)", true,
		func() fmt.Stringer { return experiments.Table1() }},
	{"fig1", "commercial DBMS operating points, medium downgrade (Figure 1)", true,
		on(experiments.DefaultCommercialConfig, experiments.Figure1)},
	{"fig2", "commercial DBMS ratio sweep, both downgrades (Figure 2)", true,
		on(experiments.DefaultCommercialConfig, experiments.Figure2)},
	{"fig3", "MySQL MEMORY ratio sweep (Figure 3)", true,
		on(experiments.DefaultMySQLConfig, experiments.Figure3)},
	{"fig4", "observed vs theoretical EDP = V²/F (Figure 4)", true,
		on(experiments.DefaultMySQLConfig, experiments.Figure4)},
	{"fig5", "disk throughput and energy per KB (Figure 5)", true,
		func() fmt.Stringer { return experiments.Figure5() }},
	{"fig6", "QED energy vs response time (Figure 6)", true,
		on(experiments.DefaultMySQLConfig, experiments.Figure6)},
	{"fig6hash", "Figure 6 with the hash-set merge strategy (ablation)", false,
		on(experiments.DefaultMySQLConfig, experiments.Figure6HashSet)},
	{"warmcold", "§3.5 warm vs cold buffer pool", true,
		on(experiments.DefaultCommercialConfig, experiments.WarmCold)},
	{"capvsuc", "ablation: FSB underclocking vs multiplier capping", false,
		on(experiments.DefaultCommercialConfig, experiments.CapVsUnderclock)},
	{"mechanisms", "ablation: decompose setting A's savings by mechanism", false,
		on(experiments.DefaultCommercialConfig, experiments.Mechanisms)},
	{"sharedscan", "ablation: non-mergeable QED batches from one shared pass vs sequential", false,
		on(experiments.DefaultCommercialConfig, experiments.SharedScans)},
	{"compression", "ablation: plain vs compressed columnar storage (zone maps, dictionary strings)", false,
		on(experiments.DefaultCommercialConfig, experiments.Compression)},
	{"optimizer", "ablation: hand-lowered vs latency- vs joules-optimal plans for a TPC-H Q5 batch", false,
		on(experiments.DefaultCommercialConfig, experiments.Optimizer)},
	{"server", "ablation: admission policies under open-loop load at 10²–10⁴ QPS (docs/OPERATIONS.md)", false,
		on(experiments.DefaultServerConfig, experiments.Server)},
}

// on runs f on the default configuration d with the flag overrides applied.
func on[R fmt.Stringer](d func() experiments.Config, f func(experiments.Config) R) func() fmt.Stringer {
	return func() fmt.Stringer { return f(override(d())) }
}

func runOne(name string) error {
	i := slices.IndexFunc(experimentList, func(x experiment) bool { return x.name == name })
	if i < 0 {
		names := make([]string, len(experimentList))
		for j, x := range experimentList {
			names[j] = x.name
		}
		return fmt.Errorf("unknown experiment %q (try: %s all; flags go before the experiment name)", name, strings.Join(names, " "))
	}
	run(experimentList[i])
	return nil
}

func runAll() {
	for _, x := range experimentList {
		if x.inAll {
			run(x)
		}
	}
}

// run prints what x regenerates and the wall time it took.
func run(x experiment) {
	start := time.Now()
	fmt.Println(x.run())
	fmt.Printf("[%s regenerated in %v]\n\n", x.name, time.Since(start).Round(time.Millisecond))
}
