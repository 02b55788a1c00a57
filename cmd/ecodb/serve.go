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

// runServe is the `ecodb serve` subcommand: an HTTP query server over a
// freshly generated, warm TPC-H dataset under the serving profile. It
// serves until SIGINT/SIGTERM, then drains gracefully — every accepted
// statement is executed and answered before the process exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	policy := fs.String("policy", "shared", "admission policy: private, shared or deadline")
	maxInflight := fs.Int("max-inflight", 4096, "admission bound: statements accepted but not yet answered (0 rejects everything)")
	flushN := fs.Int("flush-threshold", 4, "co-admit as soon as this many statements wait")
	flushMs := fs.Float64("flush-wait-ms", 20, "max wait for co-admission before the window flushes anyway")
	slackMs := fs.Float64("urgent-slack-ms", 20, "deadline policy: remaining budget at or below this bypasses the window")
	window := fs.Int("window", 64, "max statements per co-admission batch")
	sf := fs.Float64("sf", 0.0005, "generated TPC-H scale factor")
	seed := fs.Uint64("seed", 42, "data-generation seed")
	profiling := fs.Bool("profiling", true, "profile every statement for exact per-statement joule attribution")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ecodb serve [flags]\n\nflags:")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\nendpoints: POST /query, GET /metrics, GET /healthz, GET /tenants")
		fmt.Fprintln(os.Stderr, "see docs/OPERATIONS.md for the operator's handbook")
	}
	fs.Parse(args)
	if err := tpch.CheckScale(*sf); err != nil {
		return usageError("serve -sf: " + err.Error())
	}

	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Policy:         pol,
		MaxInflight:    *maxInflight,
		FlushThreshold: *flushN,
		FlushWait:      sim.Duration(*flushMs / 1e3),
		UrgentSlack:    sim.Duration(*slackMs / 1e3),
		Window:         *window,
		Profiling:      *profiling,
	}
	log.Printf("ecodb serve: generating TPC-H sf=%g", *sf)
	sys := experiments.ServerSystem(experiments.Config{
		SF: *sf, Amplification: 1, Seed: *seed, ProtocolRuns: 1,
	})
	srv := server.NewServer(server.NewCore(cfg, sys), *addr)

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
		*addr, pol, *maxInflight, *flushN, *flushMs)
	// ListenAndServe returns only after the drain: every accepted statement
	// has been answered by then.
	err = srv.ListenAndServe()
	if err == nil {
		log.Printf("ecodb serve: drained, bye")
	}
	return err
}
