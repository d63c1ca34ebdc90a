// Command sbsim runs one simulation of the Table 2 machine and prints its
// measurements: execution time, cycle breakdown, commit latency,
// directories per commit, squashes and traffic. With -trace it also writes
// the run's structured event stream — the message-level view of Figures 3,
// 4 and 5 — for exactly the point it runs.
//
// Usage:
//
//	sbsim -app Radix -cores 64 -protocol ScalableBulk -chunks 32
//	sbsim -app zipf -cores 16                      # adversarial workload source
//	sbsim -record run.sbwt -cores 4                # record the workload trace
//	sbsim -app replay:run.sbwt                     # replay it; checks its fingerprint
//	sbsim -app replay:run.sbwt -protocol TCC       # replay it under any protocol
//	sbsim -app Barnes -cores 8 -chunks 2 -trace trace.json   # Perfetto export
//	sbsim -cores 8 -trace t.jsonl -trace-kind squash,commit -trace-core 3
//	sbsim -list        # application models
//	sbsim -protocols   # registered commit protocols
//	sbsim -workloads   # registered workload sources (also -app labels)
//
// The -trace file's extension picks its format: .json is Chrome trace-event
// JSON for Perfetto / chrome://tracing, .jsonl is JSON Lines, anything else
// the text log. Delivery events are emitted at delivery time (after
// contention retiming and fault rewrites), so with -trace-reads the printed
// cycle numbers match the actual arrival order.
//
// A recording embeds the run's protocol and, when the run used no fault
// profile and no -check (the trace records neither), its result
// fingerprint. A replay under the recorded protocol without either then
// compares its fingerprint with the embedded one: stderr says whether it
// was reproduced or why it was not compared, and drift exits 1.
//
// Exit codes: 0 success; 1 error or replay drift (a panic writes a crash
// bundle when -crashdir is set); 2 aborted by SIGINT/SIGTERM or the -timeout
// budget; 3 the point failed on the farm (-server).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
	"scalablebulk/internal/tracefmt"
	"scalablebulk/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
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
	traceOut := flag.String("trace", "", "write the run's event trace to FILE: .json is Perfetto, .jsonl is JSON Lines, anything else text")
	traceReads := flag.Bool("trace-reads", false, "with -trace, also trace read-path messages")
	traceKind := flag.String("trace-kind", "", "with -trace, keep only these comma-separated event kinds (e.g. commit,squash)")
	traceCore := flag.Int("trace-core", -1, "with -trace, keep only events touching this tile")
	traceChunk := flag.String("trace-chunk", "", "with -trace, keep only events about this chunk (e.g. P3.7)")
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
	filter, err := traceFilter(*traceReads, *traceKind, *traceCore, *traceChunk)
	if err == nil && *traceOut == "" {
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "trace-") {
				err = fmt.Errorf("-%s needs -trace FILE", f.Name)
			}
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbsim:", err)
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
		return runOnFarm(*server, &spec, *record, *traceOut, *asJSON)
	}
	prof, cfg, err := spec.Resolve(spec.Points[0])

	// A replayed trace is no sweep label: it names its own profile and pins
	// the machine shape, so the replay is bit-identical to the recording
	// under any protocol.
	var replayed *tracefmt.Header
	if path, isReplay := strings.CutPrefix(*app, workload.ReplayPrefix); isReplay {
		cfg.Workload = *app
		tr, err := tracefmt.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return 1
		}
		replayed = &tr.Header
		prof = scalablebulk.AdoptReplay(&cfg, tr)
		printReplaying(path, tr)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "unknown app %q; try -list or -workloads\n", *app)
		return cliutil.ExitError
	}

	if *traceOut != "" {
		closeTrace, err := openTrace(*traceOut, filter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbsim:", err)
			return cliutil.ExitError
		}
		defer func() {
			if err := closeTrace(); err != nil && code == cliutil.ExitOK {
				fmt.Fprintln(os.Stderr, "sbsim: trace:", err)
				code = cliutil.ExitError
			}
		}()
		cfg.TraceSink = filter
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
		// The header records neither a fault profile nor -check, and both
		// change the fingerprint, so only a plain run embeds one.
		fp := ""
		if cfg.Faults == nil && !cfg.Check {
			fp = scalablebulk.FingerprintSHA(res)
		}
		rec.SetRunMeta(*protocol, fp)
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
		code = emitJSON(res)
	} else {
		printResult(prof.Name, *protocol, cfg, res)
	}
	if replayed != nil && !checkReplay(replayed, *protocol, cfg, scalablebulk.FingerprintSHA(res)) {
		return cliutil.ExitError
	}
	return code
}

// printReplaying summarises a trace about to be replayed on stderr: its
// provenance, machine shape and each section's size.
func printReplaying(path string, tr *tracefmt.Trace) {
	h := tr.Header
	fmt.Fprintf(os.Stderr, "sbsim: replaying %s: %s/%s, %d cores, %d chunks/core + %d warm-up, seed %d, %d pages/thread (recorded under %s)",
		path, h.App, h.Source, h.Threads, h.ChunksPerCore, h.WarmupPerCore, h.Seed, h.PagesPerThread, h.Protocol)
	for _, sec := range []struct {
		name string
		recs []tracefmt.Rec
	}{{"warm-up", tr.Warmup}, {"chunks", tr.Chunks}} {
		st := tracefmt.SectionStats(sec.recs)
		fmt.Fprintf(os.Stderr, "; %s %d records, %d accesses (%d writes), %d pages",
			sec.name, st.Records, st.Accesses, st.Writes, st.Pages)
	}
	fmt.Fprintln(os.Stderr)
}

// checkReplay compares a replay's fingerprint got with the one its trace
// header embeds, when the replay reruns the recorded point: the header's
// protocol, no fault profile and no -check. It says on stderr whether the
// fingerprint was reproduced, or why it was not compared, and returns false
// only on drift.
func checkReplay(h *tracefmt.Header, protocol string, cfg scalablebulk.Config, got string) bool {
	var why string
	switch {
	case h.Fingerprint == "":
		why = "the trace embeds none (a run recorded with a fault profile or -check embeds none)"
	case protocol != h.Protocol:
		why = fmt.Sprintf("replaying under %s, recorded under %s", protocol, h.Protocol)
	case cfg.Faults != nil:
		why = "-faults " + cfg.Faults.Name + " changes it"
	case cfg.Check:
		why = "-check changes it"
	case got != h.Fingerprint:
		fmt.Fprintf(os.Stderr, "sbsim: replay drifted: fingerprint sha256 %s, recorded %s\n", got, h.Fingerprint)
		return false
	default:
		fmt.Fprintf(os.Stderr, "sbsim: replay reproduced the recorded fingerprint sha256 %s\n", got)
		return true
	}
	fmt.Fprintln(os.Stderr, "sbsim: fingerprint not compared:", why)
	return true
}

// runOnFarm is sbsim's thin-client mode: the point runs on a sweep-farm
// server (possibly restored straight from its journal) and prints here
// exactly as a local run would. Event traces and workload record and replay
// stay local-only — they write and read files on this machine, and a replay
// adopts the trace's machine shape, which a farm spec cannot carry.
func runOnFarm(server string, spec *scalablebulk.SweepSpec, record, traceOut string, asJSON bool) int {
	if record != "" || traceOut != "" || strings.HasPrefix(spec.Points[0].App, workload.ReplayPrefix) {
		fmt.Fprintln(os.Stderr, "sbsim: -record, -trace and -app replay:PATH are local-only and cannot combine with -server")
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

// traceFilter parses the -trace-* flags into the Filter in front of the
// -trace sink; openTrace sets its Next. Read-path messages are dropped
// unless reads is set.
func traceFilter(reads bool, kinds string, core int, chunk string) (*trace.Filter, error) {
	f := trace.NewFilter(nil)
	f.Reads, f.Core = reads, core
	if kinds != "" {
		f.Kinds = make(map[trace.Kind]bool)
		for _, name := range strings.Split(kinds, ",") {
			k, ok := trace.KindByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("-trace-kind: unknown event kind %q", name)
			}
			f.Kinds[k] = true
		}
	}
	if chunk != "" {
		var tag msg.CTag
		_, err := fmt.Sscanf(chunk, "P%d.%d", &tag.Proc, &tag.Seq)
		if err != nil || fmt.Sprintf("P%d.%d", tag.Proc, tag.Seq) != chunk {
			return nil, fmt.Errorf("-trace-chunk %q: want P<proc>.<seq>", chunk)
		}
		f.Chunk = &tag
	}
	return f, nil
}

// openTrace creates path and points f at a sink writing it in the format
// the extension names: .json is Perfetto, .jsonl is JSON Lines, anything
// else text. The returned func closes f and the file; a Perfetto file is
// only complete once it has run.
func openTrace(path string, f *trace.Filter) (func() error, error) {
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(file)
	switch filepath.Ext(path) {
	case ".json":
		f.Next = trace.NewPerfetto(w)
	case ".jsonl":
		f.Next = trace.NewJSONL(w)
	default:
		f.Next = trace.NewText(w)
	}
	return func() error { return errors.Join(f.Close(), w.Flush(), file.Close()) }, nil
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
