package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ecodb/internal/obsv"
)

// client is one closed-loop session: a keep-alive connection of its own
// and a reusable body buffer.
type client struct {
	hc  *http.Client
	url string
	buf []byte
}

func newClient(base string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		url: base + "/query",
		buf: make([]byte, 0, 1<<20),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// query POSTs one statement and reads the whole response into the
// client's buffer; the returned body is valid until the next call.
func (c *client) query(q string) (status int, body []byte, err error) {
	resp, err := c.hc.Post(c.url, "text/plain", strings.NewReader(q))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err == io.EOF {
			return resp.StatusCode, c.buf, nil
		}
		if err != nil {
			return resp.StatusCode, nil, err
		}
	}
}

// checkAnswer verifies one HTTP response against the oracle.
func checkAnswer(status int, body []byte, want stmtAnswer) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	rowsOut, fp, hasError, err := scanResponse(body)
	switch {
	case err != nil:
		return err
	case hasError:
		return fmt.Errorf("200 response carries an error field")
	case rowsOut != want.RowsOut:
		return fmt.Errorf("rows_out %d, expected %d", rowsOut, want.RowsOut)
	case formatFingerprint(fp) != want.Fingerprint:
		return fmt.Errorf("fingerprint %s, expected %s", formatFingerprint(fp), want.Fingerprint)
	}
	return nil
}

// sample is one completed request.
type sample struct {
	end     time.Time
	latency time.Duration
	bytes   int
	failed  bool
}

// hostCounters is a point-in-time reading of everything the closed loop
// reports as a delta.
type hostCounters struct {
	at       time.Time
	cpu      time.Duration // user + system, whole process
	mem      runtime.MemStats
	registry obsv.MetricsSnapshot
}

func readHostCounters() hostCounters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	h := hostCounters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		registry: obsv.Default().Snapshot(),
	}
	runtime.ReadMemStats(&h.mem)
	h.at = time.Now()
	return h
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// refLoopMs times a fixed, allocation-free integer loop on one core. It
// measures the box, not ecoDB: on shared vCPUs the same instructions take
// up to twice as long for minutes at a time, and a run's reading next to
// its neighbours' says whether a slow run was the code or the host.
func refLoopMs() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // never true; the use keeps the loop from being optimised away
		return 0
	}
	return float64(time.Since(t0)) / 1e6
}

// loopResult is the outcome of one closed-loop run.
type loopResult struct {
	before, after  hostCounters // readings at the two ends of the measured window
	samples        []sample     // completions inside the measured window
	rssMB          float64      // median resident set over the window
	refLoopMs      float64      // reference loop, mean of a reading before warm-up and one after the window
	heapInuseMax   uint64       // bytes, largest sample in the window
	problems       []string     // first few failures, warm-up included
	failedAnywhere int          // failures, warm-up included
}

// closedLoop drives the server with `clients` sessions, each sending its
// next statement only when the previous answer has fully arrived, for
// warm-up + measure; client k starts k/clients of the way down the list.
// Only completions inside the measured window are returned, but every
// answer — warm-up too — is checked against the oracle.
func closedLoop(url string, stmts []string, want *oracle, warmup, measure time.Duration) loopResult {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  loopResult
	)
	refBefore := refLoopMs()
	perClient := make([][]sample, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			out := make([]sample, 0, 1<<16)
			for i := k * len(stmts) / clients; !stop.Load(); i++ {
				idx := i % len(stmts)
				t0 := time.Now()
				status, body, err := c.query(stmts[idx])
				t1 := time.Now()
				if err == nil {
					err = checkAnswer(status, body, want.Stmts[idx])
				}
				if err != nil {
					mu.Lock()
					res.failedAnywhere++
					if len(res.problems) < 5 {
						res.problems = append(res.problems, fmt.Sprintf("statement %d %q: %v", idx, stmts[idx], err))
					}
					mu.Unlock()
				}
				out = append(out, sample{end: t1, latency: t1.Sub(t0), bytes: len(body), failed: err != nil})
			}
			perClient[k] = out
		}(k)
	}

	time.Sleep(warmup)
	res.before = readHostCounters()
	res.rssMB, res.heapInuseMax = sampleMemory(measure)
	res.after = readHostCounters()
	stop.Store(true)
	wg.Wait()
	res.refLoopMs = (refBefore + refLoopMs()) / 2

	for _, out := range perClient {
		for _, s := range out {
			if s.end.After(res.before.at) && !s.end.After(res.after.at) {
				res.samples = append(res.samples, s)
			}
		}
	}
	return res
}

// sampleMemory sleeps for d, reading the resident set and the in-use heap
// ten times a second (neither reading stops the world). It returns the
// median resident set in MB and the largest in-use heap in bytes. The
// median, not the high-water mark, is the gated number: the mark is one
// extreme reading of a heap whose size steps with garbage-collector timing,
// and it moved by ±15 % between identical runs where the median moved by 3 %.
func sampleMemory(d time.Duration) (rssMB float64, heapInuseMax uint64) {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var rss []float64
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	deadline := time.Now().Add(d)
	for {
		if b, err := os.ReadFile("/proc/self/statm"); err == nil {
			var size, resident float64
			if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
				rss = append(rss, resident*pageMB)
			}
		}
		metrics.Read(heap)
		if v := heap[0].Value.Uint64() + heap[1].Value.Uint64(); v > heapInuseMax {
			heapInuseMax = v
		}
		left := time.Until(deadline)
		if left <= 0 {
			return median(rss), heapInuseMax
		}
		time.Sleep(min(left, 100*time.Millisecond))
	}
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
