// Command sbsim runs one simulation of the Table 2 machine and prints its
// measurements: execution time, cycle breakdown, commit latency,
// directories per commit, squashes and traffic.
//
// Usage:
//
//	sbsim -app Radix -cores 64 -protocol ScalableBulk -chunks 32
//	sbsim -app zipf -cores 16                      # adversarial workload source
//	sbsim -record run.sbwt -cores 4                # record the workload trace
//	sbsim -app replay:run.sbwt -protocol TCC       # replay it under any protocol
//	sbsim -list        # application models
//	sbsim -protocols   # registered commit protocols
//	sbsim -workloads   # registered workload sources (also -app labels)
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
	app := flag.String("app", "Radix", "application model (see -list), workload source (see -workloads) or replay:PATH")
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
	record := flag.String("record", "", "record the run's chunk streams as a workload trace at FILE")
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
	if err := cliutil.CheckTimeout(*timeout); err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
		return cliutil.ExitError
	}
	if _, err := fault.ByName(*faults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cliutil.ExitError
	}
	spec := scalablebulk.SweepSpec{
		ChunksPerCore: *chunks,
		Scaling:       scalablebulk.ScalingFixed,
		Seed:          *seed,
		Faults:        *faults,
		FaultSeed:     *faultSeed,
		RunTimeoutMS:  timeout.Milliseconds(),
		Check:         *checkInv,
		Points:        []scalablebulk.Point{{App: *app, Protocol: *protocol, Cores: *cores}},
	}
	if *server != "" {
		return runOnFarm(*server, &spec, *record, *asJSON)
	}
	prof, cfg, err := spec.Resolve(spec.Points[0])

	// A replayed trace is no sweep label: it names its own profile and pins
	// the machine shape, so the replay is bit-identical to the recording
	// under any protocol.
	if path, isReplay := strings.CutPrefix(*app, workload.ReplayPrefix); isReplay {
		cfg.Workload = *app
		tr, err := tracefmt.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return 1
		}
		h := tr.Header
		prof = scalablebulk.AdoptReplay(&cfg, tr)
		fmt.Fprintf(os.Stderr, "sbsim: replaying %s: %s/%s, %d cores, %d chunks/core (recorded under %s)\n",
			path, h.App, h.Source, h.Threads, h.ChunksPerCore, h.Protocol)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "unknown app %q; try -list or -workloads\n", *app)
		return cliutil.ExitError
	}

	var rec *workload.Recording
	if *record != "" {
		r, factory, err := workload.Record(cfg.Workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return 1
		}
		rec, cfg.WorkloadFactory = r, factory
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	pt := scalablebulk.Point{App: prof.Name, Protocol: *protocol, Cores: cfg.Cores}
	res, _, err := new(scalablebulk.WarmRunner).Run(ctx, pt, prof, cfg, false, nil)
	var ce *scalablebulk.CrashError
	if errors.As(err, &ce) && *crashDir != "" {
		ce.BundlePath, ce.WriteErr = scalablebulk.WriteCrashBundle(*crashDir, ce.Report)
	}
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
// exactly as a local run would. Trace record and replay stay local-only —
// they write and read files on this machine, and a replay adopts the trace's
// machine shape, which a farm spec cannot carry.
func runOnFarm(server string, spec *scalablebulk.SweepSpec, record string, asJSON bool) int {
	if record != "" || strings.HasPrefix(spec.Points[0].App, workload.ReplayPrefix) {
		fmt.Fprintln(os.Stderr, "sbsim: -record and -app replay:PATH are local-only and cannot combine with -server")
		return cliutil.ExitError
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
	p := spec.Points[0]
	printResult(p.App, p.Protocol, spec.Config(p), res)
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return cliutil.ExitError
	}
	return 0
}
