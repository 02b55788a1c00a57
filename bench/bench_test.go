package main

import (
	"reflect"
	"testing"
	"time"
)

// testSF keeps every workload's dataset a few thousand rows, so the whole
// benchmark — five workloads, ladder and kernels included — runs in
// seconds under go test.
const testSF = 0.002

func runSmall(t *testing.T, w *workload) *workloadResult {
	t.Helper()
	res, err := runWorkload(runConfig{
		w: w, seed: 7, sf: testSF,
		warmup: 100 * time.Millisecond, window: 500 * time.Millisecond,
		trace: true, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// TestEveryWorkloadRunsCleanAndNamesMatchBenchmarkJSON runs the whole
// benchmark small and holds what it emits against BENCHMARK.json: the
// same workloads, the same metrics, the same units, nothing more.
func TestEveryWorkloadRunsCleanAndNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../" + benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	units := func(ms []benchmarkMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if _, dup := out[m.Name]; dup {
				t.Errorf("BENCHMARK.json names %s twice", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	e2eUnits, layerUnits := units(bf.EndToEnd), units(bf.PerLayer)
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bf.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			// Side by side, to stay inside tier-1's time: nothing below
			// asserts a timing, and the registry deltas the workloads
			// then share are not asserted either.
			t.Parallel()
			checkSmallRun(t, w, e2eUnits, layerUnits)
		})
	}
}

func checkSmallRun(t *testing.T, w *workload, e2eUnits, layerUnits map[string]string) {
	res := runSmall(t, w)
	if !res.Correct || res.Failed != 0 || res.ErrorRate != 0 {
		t.Errorf("%s: correct=%v failed=%d error_rate=%g problems=%v", w.Name, res.Correct, res.Failed, res.ErrorRate, res.Problems)
	}
	if res.Attempted == 0 || res.PerLayer["client.samples"] == 0 {
		t.Errorf("%s: no samples", w.Name)
	}
	for _, c := range []struct {
		kind    string
		defs    []metricDef
		emitted map[string]float64
		want    map[string]string
	}{
		{"end_to_end", endToEndMetrics, res.EndToEnd, e2eUnits},
		{"per_layer", perLayerMetrics, res.PerLayer, layerUnits},
	} {
		if len(c.emitted) != len(c.want) || len(c.defs) != len(c.want) {
			t.Errorf("%s %s: %d metrics emitted, %d in the catalog, %d in BENCHMARK.json", w.Name, c.kind, len(c.emitted), len(c.defs), len(c.want))
		}
		for _, d := range c.defs {
			if _, ok := c.emitted[d.Name]; !ok {
				t.Errorf("%s %s: %s is in the catalog but was not emitted", w.Name, c.kind, d.Name)
			}
			if unit, ok := c.want[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s %s: %s [%s] is not in BENCHMARK.json with that unit (found %q)", w.Name, c.kind, d.Name, d.Unit, unit)
			}
		}
	}
	for _, name := range []string{"qps", "latency_p50_ms", "host_cpu_ms_per_stmt", "sim_joules_per_stmt", "setup_s"} {
		if res.EndToEnd[name] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.EndToEnd[name])
		}
	}
}

// TestPhysicsPassIsBitReproducible: two passes over the same statements
// agree to the last bit, fingerprints included — on a shared-scan
// workload and on the one with parallel blocking operators.
func TestPhysicsPassIsBitReproducible(t *testing.T) {
	for _, name := range []string{"shared_scan", "join_agg_sort"} {
		w := findWorkload(name)
		stmts := w.statements(11, testSF)
		a, err := physicsPass(w, testSF, stmts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := physicsPass(w, testSF, stmts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two physics passes differ: %v", name, diffOracle(a, b, 5))
		}
		if a.SimJoulesPerStmt <= 0 || a.SimResponseMsPerStmt <= 0 {
			t.Errorf("%s: physics pass charged nothing: %+v", name, a)
		}
	}
}

// TestScanFilterAndSharedScanSendTheSameSQL pins the pairing the README
// leans on: the two scan workloads differ in admission policy only.
func TestScanFilterAndSharedScanSendTheSameSQL(t *testing.T) {
	a := findWorkload("scan_filter").statements(3, testSF)
	b := findWorkload("shared_scan").statements(3, testSF)
	if !reflect.DeepEqual(a, b) {
		t.Error("scan_filter and shared_scan generated different statement lists")
	}
	if reflect.DeepEqual(a, findWorkload("scan_filter").statements(4, testSF)) {
		t.Error("the seed does not change the statements")
	}
}

// TestSpanSelfTimesSumToRoot: over every tree of a traced run, the self
// times add up to the root span.
func TestSpanSelfTimesSumToRoot(t *testing.T) {
	w := findWorkload("short_stmt")
	sys := newSystem(testSF)
	s, err := startSUT(sys, serverConfig(w.Policy, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	stmts := w.statements(5, testSF)
	want, err := physicsPass(w, testSF, stmts)
	if err != nil {
		t.Fatal(err)
	}
	l, problems := runLadder(w, s, stmts, want, time.Second)
	if len(problems) > 0 {
		t.Fatalf("traced run: %v", problems)
	}
	rootOf := map[int]int{}
	sum := map[int]int64{}
	self := selfTimes(l.rec.spans)
	for _, sp := range l.rec.spans { // parents precede children
		root := sp.ID
		if sp.Parent != 0 {
			root = rootOf[sp.Parent]
		}
		rootOf[sp.ID] = root
		sum[root] += self[sp.ID]
	}
	if len(sum) < 2*len(stmts) {
		t.Fatalf("%d span trees for %d statements", len(sum), len(stmts))
	}
	for root, total := range sum {
		if got := l.rec.spans[root-1].ns(); got != total {
			t.Errorf("tree %d (%s): self times sum to %d ns, root span is %d ns", root, l.rec.spans[root-1].Name, total, got)
		}
	}
}

// TestScanResponseMatchesInProcessFingerprint feeds the response scanner
// the encodings it must see through: indented, compact, reordered keys,
// strings holding brackets and escapes.
func TestScanResponseMatchesInProcessFingerprint(t *testing.T) {
	indented := []byte("{\n  \"id\": \"s1\",\n  \"columns\": [\"a\", \"b\"],\n  \"rows\": [\n    [1, \"x]\\\"y\"],\n    [2.5, null]\n  ],\n  \"rows_out\": 2,\n  \"joules\": 0.1\n}\n")
	compact := []byte(`{"rows_out":2,"rows":[[1,"x]\"y"],[2.5,null]],"id":"s9"}`)
	n1, fp1, e1, err1 := scanResponse(indented)
	n2, fp2, e2, err2 := scanResponse(compact)
	if err1 != nil || err2 != nil || e1 || e2 {
		t.Fatalf("scan failed: %v %v %v %v", err1, err2, e1, e2)
	}
	if n1 != 2 || n2 != 2 || fp1 != fp2 {
		t.Errorf("rows_out %d/%d, fingerprints %x/%x: want 2/2 and equal", n1, n2, fp1, fp2)
	}
	if want := fnvAdd(fnvOffset, []byte(`[[1,"x]\"y"],[2.5,null]]`)); fp1 != want {
		t.Errorf("fingerprint %x, want the compact rows' hash %x", fp1, want)
	}
	if _, _, hasErr, _ := scanResponse([]byte(`{"rows_out":0,"error":"boom"}`)); !hasErr {
		t.Error("error field not reported")
	}
	if _, _, _, err := scanResponse([]byte(`{"rows":[[1,2]`)); err == nil {
		t.Error("truncated body accepted")
	}
}
