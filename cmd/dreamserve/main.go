// Command dreamserve runs the checkpointing sweep service: an HTTP
// job queue that accepts sweep specifications, executes their units
// on a worker pool, streams per-cell results as NDJSON, and
// checkpoints in-flight simulations so a crashed or killed server
// resumes — and finishes byte-identically — on restart.
//
// Examples:
//
//	dreamserve -dir /var/lib/dreamserve -addr :8080
//	curl -s localhost:8080/api/v1/jobs -d '{"params":{"Tasks":5000},"node_counts":[100,200]}'
//	curl -s localhost:8080/api/v1/jobs/j000001/results?follow=1
//
// The state directory is the single source of truth: kill the
// process at any moment, start it again on the same directory, and
// every unfinished job resumes from its latest checkpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dreamsim/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dir        = flag.String("dir", "dreamserve-state", "state directory (jobs, results, checkpoints)")
		workers    = flag.Int("workers", 0, "concurrent sweep units (0 = GOMAXPROCS)")
		ckEvents   = flag.Uint64("checkpoint-events", serve.DefaultCheckpointEvents, "checkpoint cadence in processed simulation events")
		rateCap    = flag.Int("rate-capacity", 0, "submission token-bucket capacity (0 = unlimited)")
		rateRefill = flag.Float64("rate-refill", 1, "submission tokens refilled per second")
	)
	flag.Parse()
	if err := run(*addr, *dir, *workers, *ckEvents, *rateCap, *rateRefill); err != nil {
		fmt.Fprintln(os.Stderr, "dreamserve:", err)
		os.Exit(1)
	}
}

func run(addr, dir string, workers int, ckEvents uint64, rateCap int, rateRefill float64) error {
	logger := log.New(os.Stderr, "dreamserve: ", log.LstdFlags)
	srv, err := serve.New(serve.Config{
		Dir:              dir,
		Workers:          workers,
		CheckpointEvents: ckEvents,
		RateCapacity:     rateCap,
		RateRefillPerSec: rateRefill,
		Logf:             logger.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The kill harness (and humans scripting against the server) need
	// the bound address before submitting; print it once, ready.
	logger.Printf("listening on %s (state in %s)", ln.Addr(), dir)

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		srv.Close()
		return err
	case s := <-sig:
		logger.Printf("%v: checkpointing and shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	srv.Close() // pauses in-flight units at tick boundaries + checkpoints
	return nil
}
