package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/obsv"
	"ecodb/internal/tpch"
)

// processStart approximates process start: package initialisation runs a
// few hundred microseconds after exec.
var processStart = time.Now()

// kernelSF is the scale factor of the kernels' tables, whatever the
// workload's own.
const kernelSF = 0.01

// runConfig is one workload run.
type runConfig struct {
	w      *workload
	seed   int64
	sf     float64 // the workload's SF, or the test's smaller one
	warmup time.Duration
	window time.Duration
	trace  bool
	// setupSamples is how many fresh child processes time set-up; 0 times
	// this process's own set-up instead (the tests, which have no binary
	// to re-execute).
	setupSamples int
	expected     *expectedFile // nil skips the seed-42 comparison
	outDir       string        // where the trace file goes; "" writes none
}

// workloadResult is everything one run reports.
type workloadResult struct {
	Workload       string  `json:"workload"`
	Why            string  `json:"why"`
	Seed           int64   `json:"seed"`
	SF             float64 `json:"sf"`
	Policy         string  `json:"policy"`
	FlushThreshold int     `json:"flush_threshold"`
	Profiling      bool    `json:"profiling"`
	WarmupSeconds  float64 `json:"warmup_seconds"`
	WindowSeconds  float64 `json:"window_seconds"`
	Clients        int     `json:"clients"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Problems  []string `json:"problems,omitempty"`

	// RefLoopMs is the box-speed reference taken around the measured run
	// (see refLoopMs); lower is a faster box.
	RefLoopMs float64 `json:"host_ref_loop_ms"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// LayerSharePct is each ladder layer's self time as a share of the
	// traced round trip.
	LayerSharePct map[string]float64 `json:"layer_share_pct,omitempty"`
	Oracle        *oracle            `json:"oracle"`
}

// runWorkload measures one workload: set-up timing, physics pass, closed
// loop with tracing off, then (cfg.trace) the traced ladder and kernels.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	w := cfg.w
	scfg := serverConfig(w.Policy, clients)
	res := &workloadResult{
		Workload: w.Name, Why: w.Why, Seed: cfg.seed, SF: cfg.sf,
		Policy: w.Policy.String(), FlushThreshold: scfg.FlushThreshold, Profiling: scfg.Profiling,
		WarmupSeconds: cfg.warmup.Seconds(), WindowSeconds: cfg.window.Seconds(), Clients: clients,
		EndToEnd: map[string]float64{},
	}
	problem := func(format string, args ...any) {
		if len(res.Problems) < 10 {
			res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
		}
	}

	setups, err := childSetupTimes(w, cfg.sf, cfg.setupSamples)
	if err != nil {
		return nil, err
	}

	stmts := w.statements(cfg.seed, cfg.sf)
	want, err := physicsPass(w, cfg.sf, stmts)
	if err != nil {
		return nil, err
	}
	res.Oracle = want
	if cfg.expected != nil && cfg.seed == cfg.expected.Seed {
		exp := cfg.expected.Workloads[w.Name]
		if exp == nil {
			problem("expected.json has no workload %s", w.Name)
		} else {
			for _, d := range diffOracle(exp, want, 5) {
				problem("physics pass departs from expected.json: %s", d)
			}
		}
	}
	// The pass's system is garbage now; return it before the served
	// system is built so peak RSS reads one dataset, not two.
	debug.FreeOSMemory()

	t0 := time.Now()
	s, err := startSUT(newSystem(cfg.sf), scfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if cfg.setupSamples == 0 {
		setups = []float64{time.Since(t0).Seconds()}
	}

	loop := closedLoop(s.url, stmts, want, cfg.warmup, cfg.window)
	peak := peakRSSMB()
	s.stop()
	res.Problems = append(res.Problems, loop.problems...)

	res.Attempted = len(loop.samples)
	lat := make([]float64, 0, len(loop.samples))
	var bytes float64
	for _, sm := range loop.samples {
		if sm.failed {
			res.Failed++
			continue
		}
		lat = append(lat, float64(sm.latency)/1e6)
		bytes += float64(sm.bytes)
	}
	sort.Float64s(lat)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no statement succeeded inside the %v window (%d failed)", w.Name, cfg.window, res.Failed)
	}
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	ok := float64(len(lat))
	before, after := loop.before, loop.after
	window := after.at.Sub(before.at).Seconds()
	res.RefLoopMs = loop.refLoopMs
	e := res.EndToEnd
	e["setup_s"] = median(setups)
	e["qps"] = ok / window
	e["latency_p50_ms"] = percentile(lat, 50)
	e["latency_p90_ms"] = percentile(lat, 90)
	// The whole process: server, scheduler and the two in-process clients.
	e["host_cpu_ms_per_stmt"] = float64(after.cpu-before.cpu) / 1e6 / ok
	e["alloc_kb_per_stmt"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ok
	e["rss_mb"] = loop.rssMB
	e["sim_joules_per_stmt"] = want.SimJoulesPerStmt
	e["sim_response_ms_per_stmt"] = want.SimResponseMsPerStmt

	if cfg.trace {
		p := map[string]float64{}
		res.PerLayer = p
		counter := func(name string) float64 {
			return float64(after.registry.Counter(name) - before.registry.Counter(name))
		}
		batches := counter(obsv.MetricServerBatches)
		p["server.batch_size_mean"] = counter(obsv.MetricServerSessions) / math.Max(batches, 1)
		p["server.rejected"] = counter(obsv.MetricServerRejected)
		p["server.response_bytes_per_stmt"] = bytes / ok
		p["storage.pool_reads_per_stmt"] = counter(obsv.MetricPoolReads) / ok
		p["storage.pages_pruned_per_stmt"] = counter(obsv.MetricPagesPruned) / ok
		p["scanshare.attaches_per_stmt"] = counter(obsv.MetricSharedAttaches) / ok
		p["scanshare.pages_surfaced_per_stmt"] = counter(obsv.MetricSharedSurfaced) / ok
		p["scanshare.passes_per_kstmt"] = counter(obsv.MetricSharedPasses) / ok * 1e3
		p["exec.rows_out_per_stmt"] = counter(obsv.MetricRowsOut) / ok
		p["go.gc_cycles_per_kstmt"] = float64(after.mem.NumGC-before.mem.NumGC) / ok * 1e3
		p["go.gc_pause_ms_per_s"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / window
		p["go.heap_inuse_mb_max"] = float64(loop.heapInuseMax) / (1 << 20)
		p["go.peak_rss_mb"] = peak
		p["host.ref_loop_ms"] = loop.refLoopMs
		p["client.latency_p99_ms"] = percentile(lat, 99)
		p["client.latency_max_ms"] = lat[len(lat)-1]
		p["client.samples"] = ok
		p["client.error_rate"] = res.ErrorRate

		// The traced pass gets as much wall time as the measured window.
		ls, err := startSUT(s.sys, serverConfig(w.Policy, 1))
		if err != nil {
			return nil, err
		}
		l, problems := runLadder(w, ls, stmts, want, cfg.window)
		ls.stop()
		res.Problems = append(res.Problems, problems...)
		res.LayerSharePct = l.metrics(p)
		if cfg.outDir != "" {
			if err := l.rec.write(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
				return nil, err
			}
		}

		li, ord := kernelTables(s.sys.Engine.Catalog(), cfg.sf)
		kernelMetrics(li, ord, p)
	}

	res.Correct = len(res.Problems) == 0 && res.Failed == 0 && loop.failedAnywhere == 0
	return res, nil
}

// kernelTables returns lineitem and orders at the kernels' scale factor:
// the served catalog's when it is already that size (or smaller, under
// test), a freshly generated pair otherwise.
func kernelTables(served *catalog.Catalog, sf float64) (li, ord *catalog.Table) {
	cat := served
	if sf > kernelSF {
		cat = catalog.NewCatalog()
		tpch.NewGenerator(kernelSF, dataSeed).Load(cat, tpch.Orders, tpch.Lineitem)
	}
	return cat.MustTable(tpch.Lineitem), cat.MustTable(tpch.Orders)
}

// childSetupTimes runs n fresh copies of this binary that only set the
// workload up — generate, load, warm, listen, /healthz 200 — and report
// the seconds since their own process start. Fresh processes keep the
// samples alike and keep their garbage out of this process's peak RSS.
func childSetupTimes(w *workload, sf float64, n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		cmd := exec.Command(self, "-setup-only", "-workload", w.Name, "-sf", strconv.FormatFloat(sf, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		out[i], err = strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
	}
	return out, nil
}

// setupOnlyChild is the child side of childSetupTimes.
func setupOnlyChild(w *workload, sf float64) error {
	s, err := startSUT(newSystem(sf), serverConfig(w.Policy, clients))
	if err != nil {
		return err
	}
	fmt.Println(time.Since(processStart).Seconds())
	s.stop()
	return nil
}

// provenance describes the box and the build a result came from.
type provenance struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
}

func readProvenance() provenance {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return provenance{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "load generator and server share one process: host_cpu_ms_per_stmt, alloc_kb_per_stmt and rss_mb include the two HTTP clients; " +
			"all data is warm and fits the simulated 1 GiB pool in every workload",
	}
}
