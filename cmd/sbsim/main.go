// Command sbsim runs one simulation of the Table 2 machine and prints its
// measurements: execution time, cycle breakdown, commit latency,
// directories per commit, squashes and traffic.
//
// Usage:
//
//	sbsim -app Radix -cores 64 -protocol ScalableBulk -chunks 32
//	sbsim -workload zipf -cores 16          # adversarial workload source
//	sbsim -record run.sbwt -cores 4         # record the workload trace
//	sbsim -replay run.sbwt -protocol TCC    # replay it under any protocol
//	sbsim -list        # application models
//	sbsim -protocols   # registered commit protocols
//	sbsim -workloads   # registered workload sources
//
// Exit codes: 0 success; 1 error (a panic writes a crash bundle when
// -crashdir is set); 2 aborted by SIGINT/SIGTERM or the -timeout budget;
// 3 the point failed on the farm (-server).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/tracefmt"
	"scalablebulk/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	app := flag.String("app", "Radix", "application model (see -list)")
	cores := flag.Int("cores", 64, "number of processors (1, 32 or 64 in the paper)")
	protocol := flag.String("protocol", scalablebulk.ProtoScalableBulk,
		"commit protocol (see -protocols for the registry)")
	chunks := flag.Int("chunks", 32, "chunks committed per core")
	seed := flag.Int64("seed", 1, "deterministic seed")
	faults := flag.String("faults", "off",
		"fault-injection profile: off | "+strings.Join(fault.Names(), " | "))
	faultSeed := flag.Int64("faultseed", 0, "fault injector seed (0: reuse -seed); one (profile, seed) pair replays bit-identically")
	checkInv := flag.Bool("check", false, "run the online invariant checker (violations fail the run)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none); exceeding it aborts with exit code 2")
	crashDir := flag.String("crashdir", "", "write a JSON crash bundle here if the run panics")
	retry := flag.Bool("retry", false, "retry transient MaxCycles aborts under faults with escalated budgets")
	wl := flag.String("workload", "", "workload source (see -workloads) or replay:PATH; empty = synthetic -app model")
	record := flag.String("record", "", "record the run's chunk streams as a workload trace at FILE")
	replay := flag.String("replay", "", "replay the workload trace at FILE, adopting its recorded machine shape")
	server := flag.String("server", "", "run the point on a sweep-farm server at this base URL instead of in-process")
	list := flag.Bool("list", false, "list application models and exit")
	protoList := flag.Bool("protocols", false, "list registered commit protocols and exit")
	wlList := flag.Bool("workloads", false, "list registered workload sources and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	flag.Parse()

	if *list {
		for _, p := range scalablebulk.Apps() {
			fmt.Printf("%-14s %s\n", p.Name, p.Suite)
		}
		return 0
	}
	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return 0
	}
	if *wlList {
		fmt.Print(cliutil.WorkloadList())
		return 0
	}

	if err := cliutil.CheckProtocol(*protocol); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		return cliutil.ExitError
	}
	if *replay != "" {
		*wl = "replay:" + *replay
	}
	if err := cliutil.CheckWorkload(*wl); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		return cliutil.ExitError
	}

	if *server != "" {
		return runOnFarm(*server, *app, *protocol, *cores, *chunks, *seed,
			*faults, *faultSeed, *checkInv, *retry, *wl, *record, *replay,
			timeout.Milliseconds(), *asJSON)
	}

	cfg := scalablebulk.DefaultConfig(*cores, *protocol)
	cfg.ChunksPerCore = *chunks
	cfg.Seed = *seed
	cfg.Workload = *wl

	// Resolve the run's profile label: the -app model for the synthetic
	// source, the source's own name for adversarial generators, the recorded
	// header for a replayed trace (which also pins the machine shape, so the
	// replay is bit-identical to the recording under any protocol).
	var prof scalablebulk.Profile
	if path, isReplay := strings.CutPrefix(*wl, "replay:"); isReplay {
		tr, err := tracefmt.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return 1
		}
		h := tr.Header
		prof = scalablebulk.Profile{Name: h.App, Suite: "TRACE"}
		cfg.Cores, cfg.Seed = h.Threads, h.Seed
		cfg.ChunksPerCore, cfg.WarmupChunks = h.ChunksPerCore, h.WarmupPerCore
		cfg.WorkloadFactory = workload.Replay(tr)
		fmt.Fprintf(os.Stderr, "sbsim: replaying %s: %s/%s, %d cores, %d chunks/core (recorded under %s)\n",
			path, h.App, h.Source, h.Threads, h.ChunksPerCore, h.Protocol)
	} else if lbl, ok := scalablebulk.WorkloadProfile(*wl); ok {
		prof = lbl
	} else if prof, ok = scalablebulk.AppByName(*app); !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q; try -list\n", *app)
		return cliutil.ExitError
	}

	var rec *workload.Recording
	if *record != "" {
		r, factory, err := workload.Record(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return 1
		}
		rec, cfg.WorkloadFactory = r, factory
	}
	prof2, err := fault.ByName(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cliutil.ExitError
	}
	cfg.Faults = prof2
	cfg.FaultSeed = *faultSeed
	cfg.Check = *checkInv
	cfg.RunTimeout = *timeout

	ctx, stop := cliutil.SignalContext()
	defer stop()

	var res *scalablebulk.Result
	err = func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				pt := scalablebulk.Point{App: prof.Name, Protocol: *protocol, Cores: cfg.Cores}
				cr := scalablebulk.NewCrashReport(pt, cfg, rec)
				if *crashDir != "" {
					if path, werr := scalablebulk.WriteCrashBundle(*crashDir, cr); werr == nil {
						fmt.Fprintln(os.Stderr, "sbsim: crash bundle:", path)
					} else {
						fmt.Fprintln(os.Stderr, "sbsim: crash bundle write failed:", werr)
					}
				}
				err = fmt.Errorf("panic: %s", cr.Panic)
			}
		}()
		if *retry {
			res, err = scalablebulk.RunWithRetry(ctx, prof, cfg, scalablebulk.DefaultRetryPolicy())
		} else {
			res, err = scalablebulk.RunContext(ctx, prof, cfg)
		}
		return err
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, scalablebulk.ErrAborted) {
			return cliutil.ExitAborted
		}
		return cliutil.ExitError
	}

	if rec != nil {
		rec.SetRunMeta(*protocol, scalablebulk.FingerprintSHA(res))
		tr := rec.Trace()
		if err := tracefmt.WriteFile(*record, tr); err != nil {
			fmt.Fprintln(os.Stderr, "sbsim: record:", err)
			return cliutil.ExitError
		}
		st := tracefmt.SectionStats(tr.Chunks)
		fmt.Fprintf(os.Stderr, "sbsim: recorded %s: %d chunks, %d accesses (%d writes) over %d pages\n",
			*record, st.Records, st.Accesses, st.Writes, st.Pages)
	}

	if *asJSON {
		return emitJSON(res)
	}
	printResult(prof.Name, *protocol, cfg, res)
	return cliutil.ExitOK
}

// runOnFarm is sbsim's thin-client mode: the point runs on a sweep-farm
// server (possibly restored straight from its journal) and prints here
// exactly as a local run would. Trace record/replay stay local-only — they
// read and write files on this machine.
func runOnFarm(server, app, protocol string, cores, chunks int, seed int64,
	faults string, faultSeed int64, check, retry bool, wl, record, replay string,
	timeoutMS int64, asJSON bool) int {
	if record != "" || replay != "" {
		fmt.Fprintln(os.Stderr, "sbsim: -record/-replay are local-only and cannot combine with -server")
		return cliutil.ExitError
	}
	appLabel := app
	if _, ok := scalablebulk.WorkloadProfile(wl); ok {
		appLabel = wl
	}
	retries := 1 // a single attempt, like the local non-retry path
	if retry {
		retries = 0 // the default escalating policy
	}
	spec := &farm.SweepSpec{
		ChunksPerCore: chunks,
		Scaling:       farm.ScalingFixed,
		Seed:          seed,
		Workload:      wl,
		Faults:        faults,
		FaultSeed:     faultSeed,
		RunTimeoutMS:  timeoutMS,
		Retries:       retries,
		Check:         check,
		Points:        []farm.Point{{App: appLabel, Protocol: protocol, Cores: cores}},
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()
	client := &farm.Client{Base: server, Corr: farm.NewCorrID()}
	fmt.Fprintf(os.Stderr, "sbsim: farm sweep corr=%s (grep it across client, server and worker logs)\n", client.Corr)
	var res *scalablebulk.Result
	out, err := client.RunSweep(ctx, spec, func(_ farm.Point, r *scalablebulk.Result, _ bool) {
		res = r
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		return cliutil.ExitError
	}
	if code := cliutil.SweepExitCode(os.Stderr, "sbsim", out); code != cliutil.ExitOK {
		return code
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "sbsim: farm sweep finished without a result")
		return cliutil.ExitError
	}
	if asJSON {
		return emitJSON(res)
	}
	printResult(appLabel, protocol, spec.Config(spec.Points[0]), res)
	return cliutil.ExitOK
}

// printResult renders the human-readable measurement block shared by the
// local and -server paths.
func printResult(app, protocol string, cfg scalablebulk.Config, res *scalablebulk.Result) {
	fmt.Printf("%s on %d processors under %s (%d chunks/core, seed %d)\n",
		app, cfg.Cores, protocol, cfg.ChunksPerCore, cfg.Seed)
	fmt.Printf("  execution time:        %d cycles\n", res.Cycles)
	fmt.Printf("  chunks committed:      %d\n", res.ChunksCommitted)
	tot := float64(res.Breakdown.Total())
	fmt.Printf("  cycle breakdown:       useful %.1f%%  cache-miss %.1f%%  commit %.1f%%  squash %.1f%%\n",
		100*float64(res.Breakdown.Useful)/tot, 100*float64(res.Breakdown.CacheMiss)/tot,
		100*float64(res.Breakdown.Commit)/tot, 100*float64(res.Breakdown.Squash)/tot)
	fmt.Printf("  mean commit latency:   %.0f cycles\n", res.MeanCommitLatency())
	dt, dw := res.Coll.MeanDirsPerCommit()
	fmt.Printf("  directories/commit:    %.2f total, %.2f write group\n", dt, dw)
	fmt.Printf("  squashes:              %d data-conflict, %d signature-aliasing\n",
		res.Coll.SquashTrueConflict, res.Coll.SquashAliasing)
	fmt.Printf("  commit failures:       %d  (bottleneck ratio %.2f, mean queue %.2f)\n",
		res.Coll.CommitFailures, res.Coll.BottleneckRatio(), res.Coll.MeanQueueLength())

	cls := stats.TrafficClasses(res.Traffic.ByKind)
	var names []string
	for c := 0; c < int(msg.NumClasses); c++ {
		names = append(names, fmt.Sprintf("%s=%d", msg.Class(c), cls[c]))
	}
	fmt.Printf("  network messages:      %d (%s)\n", res.Traffic.Messages, strings.Join(names, " "))
	fmt.Printf("  result fingerprint:    sha256 %s\n", scalablebulk.FingerprintSHA(res))
	if res.Faults != nil {
		fmt.Printf("  faults injected:       %s\n", res.Faults)
	}
	if res.Checked {
		fmt.Printf("  invariants:            checked, none violated\n")
	}
	if len(res.Attempts) > 1 {
		fmt.Printf("  retry attempts:        %d (final budget %d cycles)\n",
			len(res.Attempts), res.Attempts[len(res.Attempts)-1].MaxCycles)
	}
}

// emitJSON prints the run's headline measurements as one JSON object, for
// scripting sweeps around sbsim.
func emitJSON(res *scalablebulk.Result) int {
	dt, dw := res.Coll.MeanDirsPerCommit()
	cls := stats.TrafficClasses(res.Traffic.ByKind)
	classes := map[string]uint64{}
	for c := 0; c < int(msg.NumClasses); c++ {
		classes[msg.Class(c).String()] = cls[c]
	}
	out := map[string]any{
		"app":             res.App,
		"protocol":        res.Protocol,
		"cores":           res.Cores,
		"cycles":          res.Cycles,
		"chunksCommitted": res.ChunksCommitted,
		"breakdown": map[string]uint64{
			"useful": res.Breakdown.Useful, "cacheMiss": res.Breakdown.CacheMiss,
			"commit": res.Breakdown.Commit, "squash": res.Breakdown.Squash,
		},
		"meanCommitLatency":  res.MeanCommitLatency(),
		"dirsPerCommit":      dt,
		"writeDirsPerCommit": dw,
		"squashConflict":     res.Coll.SquashTrueConflict,
		"squashAliasing":     res.Coll.SquashAliasing,
		"commitFailures":     res.Coll.CommitFailures,
		"bottleneckRatio":    res.Coll.BottleneckRatio(),
		"meanQueueLength":    res.Coll.MeanQueueLength(),
		"messages":           res.Traffic.Messages,
		"messageClasses":     classes,
		"fingerprintSHA":     scalablebulk.FingerprintSHA(res),
	}
	if res.Faults != nil {
		out["faults"] = map[string]uint64{
			"planned": res.Faults.Planned, "delayed": res.Faults.Delayed,
			"duplicated": res.Faults.Duplicated, "retransmits": res.Faults.Retransmits,
			"hot": res.Faults.HotHits,
		}
	}
	if res.Checked {
		out["invariantsChecked"] = true
	}
	if res.Attempts != nil {
		out["attempts"] = res.Attempts
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cliutil.ExitError
	}
	return 0
}
