package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// cmdServe runs dacd, the long-lived tuning daemon: an HTTP JSON API
// over the pipeline with durable, resumable jobs and a versioned model
// registry (see DESIGN.md §10). The bound address is printed to stdout
// and written to <data>/addr so scripts can use -addr :0 (a random free
// port) without parsing logs. SIGINT/SIGTERM shut down gracefully:
// in-flight collect rows stay journaled and unfinished jobs are adopted
// by the next daemon started over the same data directory.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address (use :0 for a random free port)")
	data := fs.String("data", "dacd-data", "data directory (journals, jobs, collected CSVs, model registry)")
	workers := fs.Int("workers", 2, "concurrent tuning jobs (min 1)")
	coalesceWindow := fs.Duration("coalesce-window", 200*time.Microsecond, "predict micro-batch gather window (must be positive)")
	keepVersions := fs.Int("keep-versions", 4, "old versions kept hot beside the latest, per model that clients have predicted against; a job's registration alone pins nothing (0 = keep none)")
	memoCap := fs.Int("memo-cap", 262144, "max prediction vectors each hot model version memoizes after their second request; first answers wait in a window of memo-cap/64 (must be positive)")
	coordinator := fs.Bool("coordinator", false, "enable the fleet coordinator: collect sweeps shard across `dac worker` agents when any are live (DESIGN.md §15)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "fleet: lease/liveness horizon past a worker's last heartbeat")
	chunkRows := fs.Int("chunk-rows", 64, "fleet: sweep rows per leased chunk")
	authToken := fs.String("auth-token", os.Getenv("DAC_TOKEN"), "shared secret required on mutating endpoints; empty runs open (default $DAC_TOKEN)")
	rateLimit := fs.Float64("rate-limit", 0, "max mutating requests/sec per bearer token, 429 past the burst (0 = unlimited)")
	gcKeepVersions := fs.Int("gc-keep-versions", 0, "prune each registry model to its newest N versions, on startup and after every registration (0 = keep all)")
	fs.Parse(args)

	// Flag values are validated loudly at startup: a zero/negative window
	// would silently disable micro-batching, a negative memo cap would
	// memoize without bound, and zero workers would accept jobs that never
	// run. Every flag states its real default; there are no sentinels.
	if *workers < 1 {
		return fmt.Errorf("serve: -workers must be at least 1, got %d", *workers)
	}
	if *coalesceWindow <= 0 {
		return fmt.Errorf("serve: -coalesce-window must be positive, got %v", *coalesceWindow)
	}
	if *memoCap < 1 {
		return fmt.Errorf("serve: -memo-cap must be positive, got %d", *memoCap)
	}
	if *keepVersions < 0 {
		return fmt.Errorf("serve: -keep-versions must not be negative, got %d", *keepVersions)
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("serve: -lease-ttl must be positive, got %v", *leaseTTL)
	}
	if *chunkRows < 1 {
		return fmt.Errorf("serve: -chunk-rows must be at least 1, got %d", *chunkRows)
	}
	if *gcKeepVersions < 0 {
		return fmt.Errorf("serve: -gc-keep-versions must not be negative, got %d", *gcKeepVersions)
	}
	if *rateLimit < 0 {
		return fmt.Errorf("serve: -rate-limit must not be negative, got %g", *rateLimit)
	}
	keep := *keepVersions
	if keep == 0 {
		keep = -1 // the library's "keep none"; 0 would select its default
	}

	reg := obs.NewRegistry()
	s, err := serve.NewServerOpts(*data, serve.ServerOptions{
		Workers: *workers,
		Obs:     reg,
		Serving: serve.ServingOptions{
			CoalesceWindow:  *coalesceWindow,
			KeepOldVersions: keep,
			MemoCap:         *memoCap,
		},
		Fleet: serve.FleetOptions{
			Enabled:   *coordinator,
			LeaseTTL:  *leaseTTL,
			ChunkRows: *chunkRows,
		},
		AuthToken:      *authToken,
		GCKeepVersions: *gcKeepVersions,
		RateLimit:      *rateLimit,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if err := os.WriteFile(filepath.Join(*data, "addr"), []byte(bound+"\n"), 0o644); err != nil {
		return err
	}
	mode := ""
	if *coordinator {
		mode = ", fleet coordinator on"
	}
	if *authToken != "" {
		mode += ", auth required"
	}
	fmt.Printf("dacd listening on %s (data: %s, %d workers%s)\n", bound, *data, *workers, mode)

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "dacd: %v, shutting down\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
