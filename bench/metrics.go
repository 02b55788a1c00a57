package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// metricDef names one reported number. The catalog below is what the
// program emits; BENCHMARK.json repeats it with directions and bounds,
// and bench_test.go holds the two equal.
type metricDef struct {
	Name string
	Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"qps", "stmt/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"host_cpu_ms_per_stmt", "ms"},
	{"alloc_kb_per_stmt", "KB"},
	{"rss_mb", "MB"},
	{"sim_joules_per_stmt", "J"},
	{"sim_response_ms_per_stmt", "sim_ms"},
}

// kernelNames are the operator kernels measured at one worker (.w1) and
// at one worker per core (.wN).
var kernelNames = []string{
	"exec.scan_ns_per_row",
	"exec.filter_cmp_ns_per_row",
	"exec.filter_conj_ns_per_row",
	"exec.project_arith_ns_per_row",
	"exec.agg_ns_per_row",
	"exec.join_build_ns_per_row",
	"exec.join_probe_ns_per_row",
	"exec.sort_ns_per_row",
}

var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"sql.parse_us_per_stmt", "us"},
		{"sql.bind_us_per_stmt", "us"},
		{"opt.extract_us_per_stmt", "us"},
		{"opt.optimize_us_per_stmt", "us"},
		{"opt.lower_us_per_stmt", "us"},
		{"opt.bypass_share", "ratio"},
		{"exec.compile_us_per_stmt", "us"},
		{"exec.drain_ms_per_stmt", "ms"},
		{"exec.ns_per_row_in", "ns"},
	}
	for _, k := range kernelNames {
		m = append(m, metricDef{k + ".w1", "ns"}, metricDef{k + ".wN", "ns"})
	}
	return append(m,
		metricDef{"exec.sharedscan_ns_per_row", "ns"},
		metricDef{"expr.filter_cmp_ns_per_row", "ns"},
		metricDef{"expr.filter_conj_ns_per_row", "ns"},
		metricDef{"expr.eval_arith_ns_per_row", "ns"},
		metricDef{"expr.groupkeys_ns_per_row", "ns"},
		metricDef{"engine.self_us_per_stmt", "us"},
		metricDef{"hw.host_ns_per_sim_kcycle", "ns"},
		metricDef{"obsv.profile_overhead_pct", "%"},
		metricDef{"obsv.metrics_render_us", "us"},
		metricDef{"server.admit_self_us_per_stmt", "us"},
		metricDef{"server.encode_self_us_per_stmt", "us"},
		metricDef{"server.encode_ns_per_row", "ns"},
		metricDef{"server.http_self_us_per_stmt", "us"},
		metricDef{"server.response_bytes_per_stmt", "B"},
		metricDef{"server.batch_size_mean", "stmt"},
		metricDef{"server.rejected", "count"},
		metricDef{"storage.pool_reads_per_stmt", "count"},
		metricDef{"storage.pages_pruned_per_stmt", "count"},
		metricDef{"scanshare.attaches_per_stmt", "count"},
		metricDef{"scanshare.pages_surfaced_per_stmt", "count"},
		metricDef{"scanshare.passes_per_kstmt", "count"},
		metricDef{"exec.rows_out_per_stmt", "count"},
		metricDef{"go.gc_cycles_per_kstmt", "count"},
		metricDef{"go.gc_pause_ms_per_s", "ms/s"},
		metricDef{"go.heap_inuse_mb_max", "MB"},
		metricDef{"go.peak_rss_mb", "MB"},
		metricDef{"host.ref_loop_ms", "ms"},
		metricDef{"client.latency_p99_ms", "ms"},
		metricDef{"client.latency_max_ms", "ms"},
		metricDef{"client.samples", "count"},
		metricDef{"client.error_rate", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// bounds returns the end-to-end regression bounds by metric name.
func (f *benchmarkFile) bounds() map[string]float64 {
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// workers is the .wN worker count: one per core.
func workers() int { return runtime.NumCPU() }
