// Command sbworker is the sweep-farm execution side: it leases points from
// an sbserver, runs them while heartbeating the lease, and delivers
// fingerprint-digested results. It asks for a point only when one of its
// -j slots is free; an idle worker's request waits on the server until work
// arrives.
//
//	sbworker -server http://127.0.0.1:8356 -j 2
//
// SIGTERM/SIGINT drains gracefully: no new leases, in-flight points finish
// and deliver, then the worker exits 0. A worker killed outright simply
// stops heartbeating — the server re-queues its leases.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/farm"
)

func main() { os.Exit(run()) }

func run() int {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	var (
		server    = flag.String("server", "http://127.0.0.1:8356", "farm server base URL")
		id        = flag.String("id", fmt.Sprintf("%s-%d", host, os.Getpid()), "worker identity reported to the server")
		parallel  = flag.Int("j", 1, "concurrent leases")
		rpcFaults = flag.String("rpcfaults", "", "RPC fault-injection profile (flaky, lossy, chaos; empty disables)")
		faultSeed = flag.Int64("rpcfaultseed", 1, "seed for the RPC fault injector")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger, err := cliutil.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbworker: %v\n", err)
		return cliutil.ExitError
	}

	client := &farm.Client{Base: *server}
	prof, err := farm.RPCFaultByName(*rpcFaults, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbworker: %v\n", err)
		return cliutil.ExitError
	}
	if prof != nil {
		client.HTTP = &http.Client{
			Transport: farm.NewFaultTransport(nil, *prof),
			Timeout:   30 * time.Second,
		}
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()
	w := &farm.Worker{
		Client:   client,
		ID:       *id,
		Parallel: *parallel,
		Log:      logger,
	}
	logger.Info("worker_start", "id", *id, "server", *server, "parallel", *parallel)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sbworker: %v\n", err)
		return cliutil.ExitError
	}
	return cliutil.ExitOK
}
