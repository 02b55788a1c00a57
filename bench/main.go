// Command bench is ecoDB's real-clock benchmark: five served workloads
// driven closed loop over a real socket, reporting wall time, CPU and
// allocations per statement beside the simulated seconds and joules those
// statements cost — which must not move. See README.md in this directory.
//
//	go run ./bench                        every workload, traced ladder included
//	go run ./bench -workload short_stmt   one workload, end-to-end metrics
//	go run ./bench -aa 3                  A/A: three full runs, spread against the bounds
//	go run ./bench -update                regenerate expected.json (seed 42)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

const (
	benchmarkPath = "BENCHMARK.json"
	expectedPath  = "bench/expected.json"
	outDir        = "bench/out"
	// setupSamples fresh processes time set-up in every run; the median
	// is reported.
	setupSamples = 9
)

// options are the command line.
type options struct {
	workload        string
	seed            int64
	seconds, warmup float64
	trace, aa       int
	update          bool
	setupOnly       bool
	sf              float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the one-line JSON result (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", expectedSeed, "statement-parameter seed; 42 is also checked against expected.json")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window, seconds")
	flag.Float64Var(&o.warmup, "warmup", 3, "closed-loop warm-up before the window, seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports end-to-end metrics, 1 also runs the traced ladder and kernels and reports per-layer metrics")
	flag.IntVar(&o.aa, "aa", 0, "run the whole benchmark N times and compare the spread of every end-to-end metric with its bound")
	flag.BoolVar(&o.update, "update", false, "rewrite bench/expected.json from seed-42 physics passes and exit")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: set the workload up, print seconds since process start, exit")
	flag.Float64Var(&o.sf, "sf", 0, "internal: scale factor for -setup-only")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if _, err := os.Stat(benchmarkPath); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	switch {
	case o.update:
		return updateExpected()
	case o.aa > 0:
		return runAA(o.aa, o.seed, o.seconds, o.warmup)
	case o.workload == "":
		_, err := runAll(o.seed, o.seconds, o.warmup, true)
		return err
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly {
		return setupOnlyChild(w, o.sf)
	}
	return runOne(w, o)
}

// runOne runs one workload in this process and ends with the contract's
// one-line JSON result.
func runOne(w *workload, o options) error {
	expected, err := readExpected(expectedPath)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(runConfig{
		w: w, seed: o.seed, sf: w.SF,
		warmup: seconds2dur(o.warmup), window: seconds2dur(o.seconds),
		trace: o.trace == 1, setupSamples: setupSamples, expected: expected, outDir: outDir,
	})
	if err != nil {
		return err
	}
	prov := readProvenance()
	printProvenance(os.Stdout, prov, o.seed)
	printWorkload(os.Stdout, res, bf.bounds())
	if err := writeJSON(filepath.Join(outDir, "result-"+w.Name+".json"), resultFile{Provenance: prov, Workloads: []*workloadResult{res}}); err != nil {
		return err
	}

	// The contract line: end-to-end metrics untraced, per-layer traced.
	defs, vals := endToEndMetrics, res.EndToEnd
	if o.trace == 1 {
		defs, vals = perLayerMetrics, res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: INCORRECT — %d of %d statements failed; see the problems above", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// resultFile is bench/out/result.json (and each child's result-<workload>.json).
type resultFile struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own — a clean
// metrics registry and a clean RSS high-water mark each — and gathers
// their results into bench/out/result.json.
func runAll(seed int64, seconds, warmup float64, traced bool) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	all := &resultFile{Provenance: readProvenance()}
	var failed []string
	for _, w := range workloads {
		traceArg := "0"
		if traced {
			traceArg = "1"
		}
		cmd := exec.Command(self,
			"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-warmup", strconv.FormatFloat(warmup, 'g', -1, 64), "-trace", traceArg)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		resultPath := filepath.Join(outDir, "result-"+w.Name+".json")
		os.Remove(resultPath) // a stale result must not stand in for a child that died
		runErr := cmd.Run()
		var one resultFile
		b, err := os.ReadFile(resultPath)
		if err == nil {
			err = json.Unmarshal(b, &one)
		}
		if err != nil || len(one.Workloads) != 1 {
			return nil, fmt.Errorf("workload %s left no result (%v)", w.Name, runErr)
		}
		all.Workloads = append(all.Workloads, one.Workloads[0])
		if runErr != nil {
			failed = append(failed, w.Name)
		}
		fmt.Println()
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), all); err != nil {
		return nil, err
	}
	printSummary(os.Stdout, all)
	if len(failed) > 0 {
		return all, fmt.Errorf("incorrect or failed workloads: %v", failed)
	}
	return all, nil
}

// updateExpected rewrites bench/expected.json.
func updateExpected() error {
	f := expectedFile{Seed: expectedSeed, Workloads: map[string]*oracle{}}
	for _, w := range workloads {
		o, err := physicsPass(w, w.SF, w.statements(expectedSeed, w.SF))
		if err != nil {
			return err
		}
		f.Workloads[w.Name] = o
		fmt.Printf("%-14s sim_joules_per_stmt=%v sim_response_ms_per_stmt=%v\n", w.Name, o.SimJoulesPerStmt, o.SimResponseMsPerStmt)
	}
	return writeJSON(expectedPath, f)
}
