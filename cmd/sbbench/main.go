// Command sbbench is the reproducible benchmark runner behind the repo's
// BENCH_*.json performance trajectory. One invocation measures three layers:
//
//   - micro: the DES event queue (calendar vs the preserved heap reference)
//     and the signature kernels (word-level vs the Ref* baselines), in
//     ns/op and allocs/op via testing.Benchmark;
//   - per-protocol: one contended application (Barnes, 64 processors) under
//     each protocol — wall time, simulated cycles/second, and heap
//     allocations per run;
//   - sweep: the full figure sweep on the parallel engine (and, without
//     -quick, serially as well, for the measured speedup), plus per-figure
//     render times from the populated cache.
//
// Output is a JSON report (-o) and, optionally, a benchstat-compatible text
// file (-gobench) for comparison against bench/baseline.txt. Everything is
// seeded and deterministic except wall-clock timings.
//
// Exit codes: 0 success; 1 setup/internal error; 2 aborted by SIGINT/SIGTERM
// or the -timeout budget; 3 completed with sweep point failures (crash
// bundles land in -crashdir).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/event"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/metrics"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/trace"
)

type microResult struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
}

type protocolResult struct {
	Protocol     string  `json:"protocol"`
	App          string  `json:"app"`
	Cores        int     `json:"cores"`
	WallMS       float64 `json:"wall_ms"`
	SimCycles    uint64  `json:"sim_cycles"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Mallocs      uint64  `json:"mallocs"`
	Committed    uint64  `json:"chunks_committed"`
}

type figureResult struct {
	Figure string  `json:"figure"`
	WallMS float64 `json:"render_wall_ms"`
}

type sweepResult struct {
	Points         int     `json:"points"`
	Parallelism    int     `json:"parallelism"`
	ParallelWallMS float64 `json:"parallel_wall_ms"`
	SerialWallMS   float64 `json:"serial_wall_ms,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
}

type report struct {
	Bench       string                 `json:"bench"`
	GeneratedBy string                 `json:"generated_by"`
	Config      map[string]any         `json:"config"`
	Micro       map[string]microResult `json:"micro"`
	Protocols   []protocolResult       `json:"protocols"`
	Figures     []figureResult         `json:"figures"`
	Sweep       sweepResult            `json:"sweep"`
}

func main() {
	os.Exit(run())
}

func run() int {
	testing.Init() // registers -test.benchtime, which micro() adjusts per mode
	var (
		quick     = flag.Bool("quick", false, "CI smoke mode: shorter micro runs, skip the serial sweep")
		chunks    = flag.Int("chunks", 4, "Session ChunksPerCore (figure-sweep sizing)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		par       = flag.Int("j", 0, "sweep parallelism (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
		crashDir  = flag.String("crashdir", "", "directory for per-point crash bundles ('' disables)")
		outPath   = flag.String("o", "BENCH_PR10.json", "JSON report path (- for stdout)")
		gobench   = flag.String("gobench", "", "also write benchstat-compatible text to this path")
		telemetry = flag.String("telemetry", "", "serve live metrics on this address while benchmarking (e.g. :8090)")
		server    = flag.String("server", "", "run the figure sweep on a sweep-farm server at this base URL (skips the serial comparison)")
		protoList = flag.Bool("protocols", false, "list registered commit protocols and exit")
		wl        = flag.String("workload", "", "workload source for the per-protocol runs (see -workloads); empty = synthetic Barnes")
		wlList    = flag.Bool("workloads", false, "list registered workload sources and exit")
	)
	flag.Parse()

	if *protoList {
		fmt.Print(cliutil.ProtocolList())
		return 0
	}
	if *wlList {
		fmt.Print(cliutil.WorkloadList())
		return 0
	}
	if err := cliutil.CheckWorkload(*wl); err != nil {
		fmt.Fprintln(os.Stderr, "sbbench:", err)
		return 1
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	var reg *metrics.Registry
	if *telemetry != "" {
		reg = metrics.NewRegistry()
		addr, closeFn, err := metrics.Serve(*telemetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbbench:", err)
			return 1
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", addr)
	}

	parallelism := *par
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	rep := report{
		Bench:       "PR10",
		GeneratedBy: "cmd/sbbench",
		Config: map[string]any{
			"chunks_per_core": *chunks,
			"seed":            *seed,
			"parallelism":     parallelism,
			"quick":           *quick,
			"gomaxprocs":      runtime.GOMAXPROCS(0),
		},
		Micro: map[string]microResult{},
	}

	benchTime := 2 * time.Second
	if *quick {
		benchTime = 300 * time.Millisecond
	}

	fmt.Fprintln(os.Stderr, "== micro: event queue ==")
	rep.Micro["event_calendar"] = micro(benchTime, benchEventCalendar)
	rep.Micro["event_heap"] = micro(benchTime, benchEventHeap)
	fmt.Fprintln(os.Stderr, "== micro: sig kernels ==")
	rep.Micro["sig_overlaps"] = micro(benchTime, benchSigOverlaps)
	rep.Micro["sig_overlaps_ref"] = micro(benchTime, benchSigOverlapsRef)
	rep.Micro["sig_empty"] = micro(benchTime, benchSigEmpty)
	rep.Micro["sig_empty_ref"] = micro(benchTime, benchSigEmptyRef)
	rep.Micro["sig_union"] = micro(benchTime, benchSigUnion)
	rep.Micro["sig_union_ref"] = micro(benchTime, benchSigUnionRef)
	fmt.Fprintln(os.Stderr, "== micro: trace nil-sink ==")
	rep.Micro["trace_nilsink"] = micro(benchTime, benchTraceNilSink)
	if m := rep.Micro["trace_nilsink"]; m.AllocsPerOp != 0 {
		// The disabled tracer allocating would tax every simulated message;
		// fail loudly rather than publish a poisoned baseline.
		fmt.Fprintf(os.Stderr, "sbbench: trace_nilsink allocated %d allocs/op, want 0\n", m.AllocsPerOp)
		return 1
	}

	benchApp := "Barnes"
	if _, ok := scalablebulk.WorkloadProfile(*wl); ok {
		benchApp = *wl
	}
	fmt.Fprintf(os.Stderr, "== per-protocol runs (%s, 64 processors) ==\n", benchApp)
	for _, protocol := range scalablebulk.Protocols {
		pr, err := protocolRun(ctx, protocol, *wl, *chunks, *seed, *timeout, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %s: %v\n", protocol, err)
			if errors.Is(err, scalablebulk.ErrAborted) {
				return 2
			}
			return 1
		}
		rep.Protocols = append(rep.Protocols, pr)
	}

	fmt.Fprintln(os.Stderr, "== figure sweep ==")
	sw, figs, code := sweep(ctx, *chunks, *seed, parallelism, !*quick && *server == "", *timeout, *crashDir, *server, reg)
	rep.Sweep, rep.Figures = sw, figs
	if code != 0 && code != 3 {
		return code
	}

	if err := writeJSON(*outPath, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "sbbench:", err)
		return 1
	}
	if *gobench != "" {
		if err := writeGobench(*gobench, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "sbbench:", err)
			return 1
		}
	}
	return code
}

func micro(d time.Duration, fn func(*testing.B)) microResult {
	prev := flag.Lookup("test.benchtime")
	if prev != nil {
		_ = prev.Value.Set(d.String())
	}
	r := testing.Benchmark(fn)
	return microResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchEventCalendar replays the simulator's event mix (chains of +7 link
// hops and +2 directory lookups, occasional +300 memory trips, cancelled
// +200k watchdogs) on the calendar engine; benchEventHeap replays the same
// mix on the preserved heap reference.
func benchEventCalendar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := event.New()
		eventLoad(10_000,
			func(t event.Time, fn event.Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
	}
}

func benchEventHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := event.NewHeap()
		eventLoad(10_000,
			func(t event.Time, fn event.Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
	}
}

func eventLoad(n int, at func(event.Time, event.Handler) func(), now func() event.Time, step func() bool) {
	var watchdogs []func()
	var chain event.Handler
	left := n
	chain = func() {
		if left == 0 {
			return
		}
		left--
		d := event.Time(7)
		switch left % 29 {
		case 0:
			d = 300
		case 1:
			d = 2
		}
		at(now()+d, chain)
		if left%97 == 0 {
			watchdogs = append(watchdogs, at(now()+200_000, func() {}))
		}
		if len(watchdogs) > 4 {
			watchdogs[0]()
			watchdogs = watchdogs[1:]
		}
	}
	at(1, chain)
	for step() {
	}
}

var (
	sinkBool bool
	sinkSig  sig.Sig
)

func sigFixtures() (a, b sig.Sig) {
	return sig.FromLines([]sig.Line{1, 513, 4097, 70000}),
		sig.FromLines([]sig.Line{2, 514, 4098, 70001})
}

func benchSigOverlaps(b *testing.B) {
	x, y := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = x.Overlaps(&y)
	}
}

func benchSigOverlapsRef(b *testing.B) {
	x, y := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = sig.RefOverlaps(&x, &y)
	}
}

func benchSigEmpty(b *testing.B) {
	x, _ := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = x.Empty()
	}
}

func benchSigEmptyRef(b *testing.B) {
	x, _ := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = sig.RefEmpty(&x)
	}
}

func benchSigUnion(b *testing.B) {
	x, y := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = x.Union(y)
	}
}

func benchSigUnionRef(b *testing.B) {
	x, y := sigFixtures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = sig.RefUnion(x, y)
	}
}

// benchTraceNilSink measures the disabled-tracer emission paths — the price
// every message pays when no -trace sink is attached. The contract is zero
// allocations and low single-digit ns/op; run() hard-fails on any allocation.
func benchTraceNilSink(b *testing.B) {
	var tr *trace.Tracer
	m := &msg.Msg{Kind: msg.Grab, Src: 1, Dst: 2, Tag: msg.CTag{Proc: 1, Seq: 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(trace.KCommit, trace.PhaseBegin, 3, false, m.Tag, 0)
		tr.MsgSend(m)
		tr.MsgDeliver(m)
	}
}

// protocolRun measures one full simulation: wall time, simulated
// cycles/second of wall time, and heap allocations.
func protocolRun(ctx context.Context, protocol, wl string, chunks int, seed int64, timeout time.Duration, reg *metrics.Registry) (protocolResult, error) {
	prof, _ := scalablebulk.AppByName("Barnes")
	cfg := scalablebulk.DefaultConfig(64, protocol)
	cfg.ChunksPerCore = chunks
	cfg.Seed = seed
	cfg.RunTimeout = timeout
	if lbl, ok := scalablebulk.WorkloadProfile(wl); ok {
		prof, cfg.Workload = lbl, wl
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := scalablebulk.RunContext(ctx, prof, cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return protocolResult{}, err
	}
	metrics.ObserveRun(reg, res.Coll, res.Traffic, res.RingResidency)
	pr := protocolResult{
		Protocol:     protocol,
		App:          prof.Name,
		Cores:        64,
		WallMS:       float64(wall.Microseconds()) / 1000,
		SimCycles:    uint64(res.Cycles),
		CyclesPerSec: float64(res.Cycles) / wall.Seconds(),
		Mallocs:      after.Mallocs - before.Mallocs,
		Committed:    res.ChunksCommitted,
	}
	fmt.Fprintf(os.Stderr, "  %-18s %8.1f ms  %12.0f cycles/s  %9d mallocs\n",
		protocol, pr.WallMS, pr.CyclesPerSec, pr.Mallocs)
	return pr, nil
}

// sweep times the full figure sweep on the parallel engine and, when serial
// is set, serially on a fresh session for the measured speedup. Figure
// renders are timed afterward from the populated cache. The int is the
// process exit code: 0 clean, 2 aborted, 3 point failures (figures skipped).
func sweep(ctx context.Context, chunks int, seed int64, parallelism int, serial bool, timeout time.Duration, crashDir, server string, reg *metrics.Registry) (sweepResult, []figureResult, int) {
	configure := func(cfg *scalablebulk.Config) { cfg.RunTimeout = timeout }
	s := scalablebulk.NewSession(chunks, seed, nil)
	s.Configure = configure
	s.CrashDir = crashDir
	s.Metrics = reg
	points := s.SweepPoints()

	var out *scalablebulk.SweepOutcome
	start := time.Now()
	if server != "" {
		// Farm mode: the points run on sbworkers; results are injected into
		// the session cache so figure rendering below is identical.
		spec := &farm.SweepSpec{
			ChunksPerCore: chunks, Seed: seed,
			RunTimeoutMS: timeout.Milliseconds(), Points: points,
		}
		client := &farm.Client{Base: server, Corr: farm.NewCorrID()}
		fmt.Fprintf(os.Stderr, "  farm sweep corr=%s\n", client.Corr)
		var err error
		out, err = client.RunSweep(ctx, spec, func(p farm.Point, res *scalablebulk.Result, _ bool) {
			s.Inject(p, res)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbbench:", err)
			return sweepResult{Points: len(points)}, nil, cliutil.ExitError
		}
	} else {
		out = s.SweepContext(ctx, points, parallelism)
	}
	parWall := time.Since(start)
	sw := sweepResult{
		Points:         len(points),
		Parallelism:    parallelism,
		ParallelWallMS: float64(parWall.Microseconds()) / 1000,
	}
	fmt.Fprintf(os.Stderr, "  parallel sweep (%d points, j=%d): %.1f ms\n",
		len(points), parallelism, sw.ParallelWallMS)
	if code := cliutil.SweepExitCode(os.Stderr, "sbbench", out); code != 0 {
		return sw, nil, code
	}

	if serial {
		s2 := scalablebulk.NewSession(chunks, seed, nil)
		s2.Configure = configure
		s2.CrashDir = crashDir
		start = time.Now()
		out2 := s2.SweepContext(ctx, points, 1)
		serWall := time.Since(start)
		if code := cliutil.SweepExitCode(os.Stderr, "sbbench", out2); code != 0 {
			return sw, nil, code
		}
		sw.SerialWallMS = float64(serWall.Microseconds()) / 1000
		sw.Speedup = serWall.Seconds() / parWall.Seconds()
		fmt.Fprintf(os.Stderr, "  serial sweep: %.1f ms (speedup %.2fx)\n", sw.SerialWallMS, sw.Speedup)
	}

	var figs []figureResult
	s.SetOut(io.Discard)
	for _, id := range scalablebulk.FigureIDs() {
		start = time.Now()
		if err := s.Figure(id); err != nil {
			fmt.Fprintln(os.Stderr, "sbbench: figure:", err)
			return sw, figs, 1
		}
		figs = append(figs, figureResult{
			Figure: fmt.Sprintf("Figure %d", id),
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	return sw, figs, 0
}

func writeJSON(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeGobench renders the report in the `go test -bench` text format that
// benchstat parses, so CI can diff runs against bench/baseline.txt.
func writeGobench(path string, rep *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "goos: %s\ngoarch: %s\npkg: scalablebulk/cmd/sbbench\n", runtime.GOOS, runtime.GOARCH)
	names := []string{
		"event_calendar", "event_heap",
		"sig_overlaps", "sig_overlaps_ref",
		"sig_empty", "sig_empty_ref",
		"sig_union", "sig_union_ref",
		"trace_nilsink",
	}
	camel := map[string]string{
		"event_calendar": "EventCalendar", "event_heap": "EventHeap",
		"sig_overlaps": "SigOverlaps", "sig_overlaps_ref": "SigOverlapsRef",
		"sig_empty": "SigEmpty", "sig_empty_ref": "SigEmptyRef",
		"sig_union": "SigUnion", "sig_union_ref": "SigUnionRef",
		"trace_nilsink": "TraceNilSink",
	}
	for _, n := range names {
		m, ok := rep.Micro[n]
		if !ok {
			continue
		}
		fmt.Fprintf(f, "Benchmark%s 	       1 	 %.1f ns/op 	 %d B/op 	 %d allocs/op\n",
			camel[n], m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	for _, p := range rep.Protocols {
		fmt.Fprintf(f, "BenchmarkRun%s 	       1 	 %.0f ns/op\n", sanitize(p.Protocol), p.WallMS*1e6)
	}
	fmt.Fprintf(f, "BenchmarkSweepParallel 	       1 	 %.0f ns/op\n", rep.Sweep.ParallelWallMS*1e6)
	if rep.Sweep.SerialWallMS > 0 {
		fmt.Fprintf(f, "BenchmarkSweepSerial 	       1 	 %.0f ns/op\n", rep.Sweep.SerialWallMS*1e6)
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}
