package experiments

import (
	"fmt"
	"strings"

	"ecodb/internal/core"
	"ecodb/internal/engine"
	"ecodb/internal/server"
	"ecodb/internal/tpch"
)

// DefaultServerConfig sizes the query-server ablation: a small lineitem
// at amplification 1, because the experiment measures serving throughput
// rather than paper-scale per-query joules.
func DefaultServerConfig() Config {
	return Config{SF: 0.0005, Amplification: 1, Seed: 42, ProtocolRuns: 1}
}

// serverProfile is the commercial profile adjusted for a serving workload:
// clients hold persistent sessions with prepared statements, so the
// per-statement overhead drops from the paper's ad-hoc JDBC round trip
// (28M cycles — parse, optimize, connection churn) to a prepared-execute
// dispatch. Simulated physics are otherwise unchanged.
func serverProfile() engine.Profile {
	prof := engine.ProfileCommercial()
	prof.QueryOverheadCycles = 5e5
	return prof
}

// ServerSystem assembles the serving SUT for `ecodb serve`: the Q5 tables
// loaded and warm under the serving profile, ready for arbitrary SQL over
// HTTP.
func ServerSystem(cfg Config) *core.System {
	return cfg.system(serverProfile(), q5Tables...)
}

// newServerSystem assembles the ablation SUT: lineitem loaded and warm,
// plus the 25-band non-mergeable selection workload as admission requests.
func newServerSystem(cfg Config) (*core.System, []server.Request) {
	sys := cfg.system(serverProfile(), tpch.Lineitem)
	plans := tpch.QuantityBandWorkload(sys.Engine.Catalog(), 25)
	reqs := make([]server.Request, len(plans))
	for i, p := range plans {
		reqs[i] = server.Request{ID: fmt.Sprintf("band%02d", i+1), Plan: p}
	}
	return sys, reqs
}

// ServerPoint is one (offered load, admission policy) cell of the ablation.
type ServerPoint struct {
	QPS    float64
	Policy server.Policy
	server.OpenLoopResult
}

// ServerResult is the latency-versus-joules Pareto sweep of the admission
// policies under open-loop load.
type ServerResult struct {
	Cfg    Config
	N      int
	Points []ServerPoint
}

// Point returns the cell for an offered load and policy, nil if absent.
func (r *ServerResult) Point(qps float64, pol server.Policy) *ServerPoint {
	for i := range r.Points {
		if r.Points[i].QPS == qps && r.Points[i].Policy == pol {
			return &r.Points[i]
		}
	}
	return nil
}

// Server runs the query-server admission ablation: the same open-loop
// arrival schedule — N statements at 10²–10⁴ statements per simulated
// second, cycling the non-mergeable band workload — pushed through each
// admission policy on a fresh system. Private admission executes every
// statement the moment the scheduler reaches it with private scans; shared
// and deadline admission gather co-admission windows and serve each batch
// from one circular pass per table. The run's energy integrates the whole
// horizon, idle watts included, so a policy that finishes the offered work
// sooner banks the difference as idle time rather than hiding it.
func Server(cfg Config) *ServerResult {
	const n = 256
	out := &ServerResult{Cfg: cfg, N: n}
	for _, qps := range []float64{100, 1000, 10000} {
		for _, pol := range []server.Policy{server.PolicyPrivate, server.PolicyShared, server.PolicyDeadline} {
			sys, reqs := newServerSystem(cfg)
			if pol == server.PolicyDeadline {
				// The deadline arm carries a 50 ms simulated response budget
				// per statement so EDF ordering and miss accounting engage.
				for i := range reqs {
					reqs[i].Deadline = 0.050
				}
			}
			scfg := server.Config{
				Policy:         pol,
				MaxInflight:    4096,
				FlushThreshold: 16,
				FlushWait:      0.005,
				UrgentSlack:    0.002,
			}
			c := server.NewCore(scfg, sys)
			res := c.RunOpenLoop(server.OpenLoopArrivals(sys.Machine.Clock.Now(), n, qps, reqs))
			out.Points = append(out.Points, ServerPoint{QPS: qps, Policy: pol, OpenLoopResult: res})
		}
	}
	return out
}

func (r *ServerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Query-server admission ablation — latency vs joules Pareto (%s)\n", r.Cfg)
	fmt.Fprintf(&b, "%d statements per point, open loop, 25 non-mergeable quantity bands over lineitem\n\n", r.N)
	fmt.Fprintf(&b, "  %8s %-9s %9s %5s %4s %10s %10s %9s %9s\n",
		"offered", "policy", "achieved", "done", "miss", "mean-resp", "max-resp", "J/query", "total-J")
	var lastQPS float64
	for _, p := range r.Points {
		if p.QPS != lastQPS && lastQPS != 0 {
			b.WriteByte('\n')
		}
		lastQPS = p.QPS
		fmt.Fprintf(&b, "  %7.0f/s %-9s %7.0f/s %5d %4d %10s %10s %9.4f %9.1f\n",
			p.QPS, p.Policy, p.AchievedQPS(), p.Completed, p.Misses,
			p.MeanResponse, p.MaxResponse, p.JoulesPerQuery(), p.Joules)
	}
	b.WriteString("\nReading the Pareto: within an offered-load row-group, a policy dominates when\n")
	b.WriteString("both its mean response and its J/query are lower. Shared admission trades a\n")
	b.WriteString("bounded co-admission wait for page I/O and page streaming charged once per\n")
	b.WriteString("pass; the saving grows with the flush batch size, so it widens with load.\n")
	return b.String()
}
