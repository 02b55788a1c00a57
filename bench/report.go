package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

func printProvenance(w io.Writer, p provenance, seed int64) {
	fmt.Fprintf(w, "ecoDB bench — commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d\n",
		p.Commit, p.GoVersion, p.NumCPU, p.GOMAXPROCS, seed)
	fmt.Fprintf(w, "note: %s\n", p.Note)
}

// printWorkload prints one workload's configuration and metrics, each
// with its unit and — when bounds are known — its regression bound.
func printWorkload(w io.Writer, r *workloadResult, bounds map[string]float64) {
	fmt.Fprintf(w, "\n== %s — SF %g, policy %s, flush threshold %d, profiling %v, %d closed-loop clients, %gs warm-up + %gs measured, tracing off\n",
		r.Workload, r.SF, r.Policy, r.FlushThreshold, r.Profiling, r.Clients, r.WarmupSeconds, r.WindowSeconds)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   attempted %d, failed %d, error_rate %g, correct %v; box-speed reference loop %.1f ms\n", r.Attempted, r.Failed, r.ErrorRate, r.Correct, r.RefLoopMs)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "   %-28s %14.6g %-7s", d.Name, r.EndToEnd[d.Name], d.Unit)
		if b, ok := bounds[d.Name]; ok {
			fmt.Fprintf(w, " (bound %g%%)", 100*b)
		}
		fmt.Fprintln(w)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "   -- per layer (traced run, one goroutine; kernels at SF %g)\n", math.Min(r.SF, kernelSF))
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "   -- share of the traced round trip by layer (self time)\n")
	names := make([]string, 0, len(r.LayerSharePct))
	for n := range r.LayerSharePct {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return r.LayerSharePct[names[i]] > r.LayerSharePct[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "   %-36s %13.1f%%\n", n, r.LayerSharePct[n])
	}
}

// printSummary prints the end-to-end metrics of every workload side by
// side.
func printSummary(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "== summary (end-to-end, tracing off)\n%-26s", "")
	for _, r := range f.Workloads {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "%-26s", d.Name+" ["+d.Unit+"]")
		for _, r := range f.Workloads {
			fmt.Fprintf(w, " %14.6g", r.EndToEnd[d.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-26s", "error_rate [ratio]")
	for _, r := range f.Workloads {
		fmt.Fprintf(w, " %14g", r.ErrorRate)
	}
	fmt.Fprintf(w, "\n%-26s", "host ref loop [ms]")
	for _, r := range f.Workloads {
		fmt.Fprintf(w, " %14.1f", r.RefLoopMs)
	}
	fmt.Fprintln(w)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method) — the spread the
// benchmark's driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// runAA runs the whole benchmark n times on this binary and holds every
// workload × end-to-end metric against its bound: the largest deviation
// of any run from the median, as a share of the median, must stay inside
// it. The simulated metrics must not deviate at all.
func runAA(n int, seed int64, seconds, warmup float64) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	bounds := bf.bounds()
	runs := make([]*resultFile, n)
	for i := range runs {
		fmt.Printf("#### A/A run %d of %d\n", i+1, n)
		if runs[i], err = runAll(seed, seconds, warmup, false); err != nil {
			return err
		}
	}
	fmt.Printf("\n== A/A over %d runs, seed %d, %gs windows\n", n, seed, seconds)
	fmt.Printf("%-14s %-26s %12s %12s %12s %9s %7s\n", "workload", "metric", "median", "q1", "q3", "max dev", "bound")
	var over []string
	for wi, w := range workloads {
		for _, d := range endToEndMetrics {
			vals := make([]float64, n)
			for i, r := range runs {
				vals[i] = r.Workloads[wi].EndToEnd[d.Name]
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			var dev float64
			for _, v := range vals {
				dev = math.Max(dev, math.Abs(v-med)/med)
			}
			bound := bounds[d.Name]
			if d.Name == "sim_joules_per_stmt" || d.Name == "sim_response_ms_per_stmt" {
				bound = 0 // same seed, same physics: any deviation is a bug
			}
			flag := ""
			if dev > bound {
				flag = "  OVER"
				over = append(over, w.Name+"/"+d.Name)
			}
			fmt.Printf("%-14s %-26s %12.6g %12.6g %12.6g %8.2f%% %6.1f%%%s\n",
				w.Name, d.Name, med, q1, q3, 100*dev, 100*bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A deviation over bound: %v", over)
	}
	return nil
}
