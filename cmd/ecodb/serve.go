package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecodb/internal/experiments"
	"ecodb/internal/server"
	"ecodb/internal/sim"
	"ecodb/internal/tpch"
)

// usageError is a flag value a subcommand rejects before doing any work:
// main prints it on one line and exits 2, as flag parsing does.
type usageError string

func (e usageError) Error() string { return string(e) }

// serveOptions is what `ecodb serve`'s flags set.
type serveOptions struct {
	addr string
	sf   float64
	seed uint64
	cfg  server.Config
}

// parseServe parses `ecodb serve`'s flags. Every admission flag writes
// its setting of a server.DefaultConfig and defaults to the setting there,
// so the flags restate no default of their own.
func parseServe(args []string) (serveOptions, error) {
	o := serveOptions{cfg: server.DefaultConfig()}
	cfg := &o.cfg
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	policy := fs.String("policy", cfg.Policy.String(), "admission policy: private, shared or deadline")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "admission bound: statements accepted but not yet answered (0 rejects everything)")
	fs.IntVar(&cfg.FlushThreshold, "flush-threshold", cfg.FlushThreshold, "co-admit as soon as this many statements wait")
	flushMs := fs.Float64("flush-wait-ms", cfg.FlushWait.Seconds()*1e3, "max wait for co-admission before the window flushes anyway")
	slackMs := fs.Float64("urgent-slack-ms", cfg.UrgentSlack.Seconds()*1e3, "deadline policy: remaining budget at or below this bypasses the window")
	fs.Float64Var(&o.sf, "sf", 0.0005, "generated TPC-H scale factor")
	fs.Uint64Var(&o.seed, "seed", 42, "data-generation seed")
	fs.BoolVar(&cfg.Profiling, "profiling", cfg.Profiling, "profile every statement for exact per-statement joule attribution")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ecodb serve [flags]\n\nflags:")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\nendpoints: POST /query, GET /metrics, GET /healthz, GET /tenants")
		fmt.Fprintln(os.Stderr, "see docs/OPERATIONS.md for the operator's handbook")
	}
	fs.Parse(args)
	if err := tpch.CheckScale(o.sf); err != nil {
		return serveOptions{}, usageError("serve -sf: " + err.Error())
	}
	var err error
	if cfg.Policy, err = server.ParsePolicy(*policy); err != nil {
		return serveOptions{}, err
	}
	cfg.FlushWait, cfg.UrgentSlack = sim.Duration(*flushMs/1e3), sim.Duration(*slackMs/1e3)
	return o, nil
}

// runServe is the `ecodb serve` subcommand: an HTTP query server over a
// freshly generated, warm TPC-H dataset under the serving profile. It
// serves until SIGINT/SIGTERM, then drains gracefully — every accepted
// statement is executed and answered before the process exits.
func runServe(args []string) error {
	opts, err := parseServe(args)
	if err != nil {
		return err
	}
	cfg := opts.cfg
	log.Printf("ecodb serve: generating TPC-H sf=%g", opts.sf)
	sys := experiments.ServerSystem(experiments.Config{
		SF: opts.sf, Amplification: 1, Seed: opts.seed, ProtocolRuns: 1,
	})
	srv := server.NewServer(server.NewCore(cfg, sys), opts.addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("ecodb serve: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // ListenAndServe returns its result once it finishes
	}()

	log.Printf("ecodb serve: listening on %s (policy=%s max-inflight=%d flush=%d/%gms)",
		opts.addr, cfg.Policy, cfg.MaxInflight, cfg.FlushThreshold, cfg.FlushWait.Seconds()*1e3)
	// ListenAndServe returns only after the drain: every accepted statement
	// has been answered by then.
	err = srv.ListenAndServe()
	if err == nil {
		log.Printf("ecodb serve: drained, bye")
	}
	return err
}
