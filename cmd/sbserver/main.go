// Command sbserver is the sweep-farm job server: it accepts sweep specs
// over HTTP/JSON, dedupes completed points through the checkpoint journal,
// and hands points to sbworker processes under time-bounded leases.
//
//	sbserver -addr :8356 -journal farm.jsonl
//
// SIGTERM (or SIGINT) drains gracefully: no new leases are granted,
// in-flight leases finish or expire, then the server exits 0. A server
// killed outright restarts from the journal — completed points survive.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/metrics"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8356", "listen address for the farm API")
		journalPath  = flag.String("journal", "", "checkpoint journal path (JSONL); empty disables durability")
		crashDir     = flag.String("crashdir", "", "directory for worker crash bundles")
		leaseTTL     = flag.Duration("lease", 10*time.Second, "lease TTL; workers heartbeat at TTL/3")
		poisonAfter  = flag.Int("poison", 3, "quarantine a point after this many distinct worker deaths")
		maxAttempts  = flag.Int("retries", 3, "lease grants per point before it fails (effective cap is max of this and -poison)")
		seed         = flag.Int64("seed", 1, "seed for the requeue-backoff jitter PRNG")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight leases on shutdown")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		ssePing      = flag.Duration("sseping", 5*time.Second, "SSE keepalive-comment interval")
	)
	flag.Parse()

	logger, err := cliutil.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		return cliutil.ExitError
	}

	opts := farm.Options{
		LeaseTTL:    *leaseTTL,
		PoisonAfter: *poisonAfter,
		MaxAttempts: *maxAttempts,
		Seed:        *seed,
		CrashDir:    *crashDir,
		SSEPing:     *ssePing,
		Logger:      logger,
	}
	if *journalPath != "" {
		j, err := scalablebulk.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
			return cliutil.ExitError
		}
		defer j.Close()
		opts.Journal = j
		logger.Info("journal_open", "path", *journalPath, "points", j.Len())
	}
	reg := metrics.NewRegistry()
	opts.Metrics = reg

	srv := farm.NewServer(opts)
	mux := metrics.Handler(reg)
	api := srv.Handler()
	mux.Handle("/v1/", api)
	mux.Handle("/api/v1/", api)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		return cliutil.ExitError
	}
	httpSrv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("sbserver: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String())

	ctx, stop := cliutil.SignalContext()
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "sbserver: %v\n", err)
		return cliutil.ExitError
	case <-ctx.Done():
	}

	// Graceful drain: stop granting leases, let in-flight points land (or
	// their leases expire), then shut the listener down.
	logger.Info("draining")
	select {
	case <-srv.Drain():
	case <-time.After(*drainTimeout):
		logger.Warn("drain_timeout", "detail", "abandoning in-flight leases")
	}
	httpSrv.Close()
	logger.Info("drained")
	return cliutil.ExitOK
}
