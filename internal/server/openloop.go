package server

import (
	"sort"

	"ecodb/internal/sim"
)

// This file is the scheduler's open-loop measurement harness: the same
// admission machinery as live serving, driven entirely in simulated time
// on the caller's goroutine. Requests arrive at fixed simulated instants
// whether or not earlier ones have finished (open loop — the offered load
// never backs off), the clock advances to the next arrival whenever the
// server idles (idle watts accrue, which is the energy-proportionality
// story), and co-admission windows elapse in simulated time. Because
// everything is deterministic, a fixed arrival schedule produces
// bit-identical results, durations, and joules on every run.

// Arrival schedules one request at a simulated instant.
type Arrival struct {
	At  sim.Time
	Req Request
}

// OpenLoopArrivals builds a constant-rate schedule: n requests at qps
// requests per simulated second, starting at start, cycling through reqs.
func OpenLoopArrivals(start sim.Time, n int, qps float64, reqs []Request) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = Arrival{
			At:  start.Add(sim.Duration(float64(i) / qps)),
			Req: reqs[i%len(reqs)],
		}
	}
	return out
}

// OpenLoopResult summarizes one open-loop run.
type OpenLoopResult struct {
	Offered   int
	Completed int
	Rejected  int
	Misses    int
	// Start and End bound the run in simulated time: first arrival to
	// last completion.
	Start, End sim.Time
	// Joules is the CPU trace energy over [Start, End] — busy and idle,
	// so a server that finishes early and sits idle still pays idle watts
	// until End.
	Joules float64
	// MeanResponse and MaxResponse aggregate completed statements'
	// queue-entry-to-completion times.
	MeanResponse, MaxResponse sim.Duration
	Responses                 []Response
	// Batches is every flush batch the run admitted, in order: replaying
	// them reproduces the run's simulated energy exactly.
	Batches []AdmittedBatch
}

// AchievedQPS returns completions per simulated second over the run.
func (r OpenLoopResult) AchievedQPS() float64 {
	if d := r.End.Sub(r.Start).Seconds(); d > 0 {
		return float64(r.Completed) / d
	}
	return 0
}

// JoulesPerQuery returns the run's total energy (idle included) per
// completed statement.
func (r OpenLoopResult) JoulesPerQuery() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.Joules / float64(r.Completed)
}

// RunOpenLoop drives the scheduler through an arrival schedule in
// simulated time and returns the run's outcome. It must not be mixed with
// Start/Do on the same core: the open loop owns the engine synchronously.
func (c *Core) RunOpenLoop(arrivals []Arrival) OpenLoopResult {
	arr := make([]Arrival, len(arrivals))
	copy(arr, arrivals)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].At < arr[j].At })

	out := OpenLoopResult{Offered: len(arr), Start: c.clock.Now()}
	if len(arr) > 0 && arr[0].At > out.Start {
		out.Start = arr[0].At
	}
	pend := make([]*pending, 0, len(arr))
	i := 0
	for i < len(arr) || len(c.queue) > 0 {
		now := c.clock.Now()
		for i < len(arr) && arr[i].At <= now {
			p := &pending{req: arr[i].Req, id: arr[i].Req.ID, tenant: arr[i].Req.Tenant}
			if c.enqueue(p) {
				pend = append(pend, p)
			} else {
				out.Rejected++
			}
			i++
		}
		if len(c.queue) == 0 {
			if i >= len(arr) {
				// Everything left was rejected at the bound; nothing to run.
				break
			}
			c.clock.AdvanceTo(arr[i].At)
			continue
		}
		// Unless the window is full or timed out, sleep to whichever comes
		// first, its expiry or the next arrival. A wake-up instant that is not
		// strictly in the future means the window has expired to within
		// float rounding ((t+w)-t can come out a hair under w), so flush
		// rather than spin on a no-op clock advance.
		next := c.oldestArrival().Add(c.cfg.FlushWait)
		if i < len(arr) && arr[i].At < next {
			next = arr[i].At
		}
		if !c.shouldFlush(i < len(arr)) && next > now {
			c.clock.AdvanceTo(next)
			continue
		}
		batch := c.flush()
		ids := make([]string, len(batch))
		for j, p := range batch {
			ids[j] = p.id
		}
		out.Batches = append(out.Batches, AdmittedBatch{At: now, Policy: c.cfg.Policy, IDs: ids})
	}

	out.End = c.clock.Now()
	trace := c.sys.Machine.CPU.Trace()
	out.Joules = float64(trace.Energy(out.Start, out.End))
	out.Responses = make([]Response, len(pend))
	for j, p := range pend {
		if p.resp.Result != nil {
			p.resp.Rows = p.resp.Result.Rows()
			p.resp.rows.Release()
			p.resp.Result, p.resp.rows = nil, nil
		}
		out.Responses[j] = p.resp
		if p.resp.Err != nil {
			continue
		}
		out.Completed++
		if p.resp.DeadlineMiss {
			out.Misses++
		}
		out.MeanResponse += p.resp.Response
		if p.resp.Response > out.MaxResponse {
			out.MaxResponse = p.resp.Response
		}
	}
	if out.Completed > 0 {
		out.MeanResponse /= sim.Duration(out.Completed)
	}
	return out
}
