package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ecodb/internal/catalog"
	"ecodb/internal/core"
	"ecodb/internal/experiments"
	"ecodb/internal/server"
	"ecodb/internal/sql"
)

// dataSeed generates the dataset. It is fixed: --seed varies the SQL the
// clients send, never the data the server was started over.
const dataSeed = 42

// clients is the closed loop's concurrency, and therefore the flush
// threshold: never more load-generating goroutines than the 2-vCPU box
// has cores, and a co-admission window that fills the moment both clients
// have a statement waiting (the default threshold of 4 would measure the
// 20 ms flush timer, not the engine).
const clients = 2

// serverConfig is `ecodb serve`'s shipped configuration with the
// workload's policy and the client-count flush threshold.
func serverConfig(pol server.Policy, flush int) server.Config {
	cfg := server.DefaultConfig()
	cfg.Policy = pol
	cfg.FlushThreshold = flush
	return cfg
}

// newSystem generates, loads and warms the dataset exactly as `ecodb
// serve` does.
func newSystem(sf float64) *core.System {
	return experiments.ServerSystem(experiments.Config{SF: sf, Amplification: 1, Seed: dataSeed, ProtocolRuns: 1})
}

// sut is one running system under test: a started scheduler behind the
// server's own route table on a loopback listener.
type sut struct {
	sys     *core.System
	core    *server.Core
	handler http.Handler
	hs      *http.Server
	url     string
	served  chan error
	stopped sync.Once
}

// startSUT starts a scheduler and an HTTP listener over sys and returns
// once /healthz answers 200.
func startSUT(sys *core.System, cfg server.Config) (*sut, error) {
	c := server.NewCore(cfg, sys)
	c.Start()
	h := server.NewServer(c, "").Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &sut{
		sys:     sys,
		core:    c,
		handler: h,
		hs:      &http.Server{Handler: h},
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop drains the listener and the scheduler and waits for both. It may
// be called more than once.
func (s *sut) stop() {
	s.stopped.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.hs.Shutdown(ctx)
		<-s.served
		s.core.Shutdown(ctx)
	})
}

// buildRequest turns SQL text into the request the HTTP handler would
// submit for it: EXPLAIN goes to the scheduler as text, everything else
// is parsed and bound here.
func buildRequest(cat *catalog.Catalog, q string) (server.Request, error) {
	req := server.Request{SQL: q, CollectRows: true}
	stmt, err := sql.Parse(q)
	if err != nil {
		return req, err
	}
	if stmt.Explain {
		req.Kind = server.StmtExplain
		return req, nil
	}
	req.Plan, err = sql.Bind(cat, stmt)
	return req, err
}
