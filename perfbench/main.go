// Command perfbench is the repository's benchmark. It drives the simulator
// through its public APIs on one of four workloads and prints, as the last
// line of standard output, one JSON object with the outputs' correctness,
// the operation counts and the metrics:
//
//	perfbench --workload sim-commit --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it makes a traced run and reports the per-layer metrics.
// Every simulation's ResultFingerprint is checked against the pins under
// pins/. A full report (timing summaries, host-noise record, spans) goes
// to --out. See README.md for the workloads and metrics.
//
// perfbench --write-pins pins regenerates the pins from the current code.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	sb "scalablebulk"
)

// workloads are the benchmark's workload names, in BENCHMARK.json order.
var workloads = []string{"sim-commit", "sim-read", "sweep", "farm"}

// setupReps is how many times set-up is repeated, each after a GC so every
// repetition starts from the same heap; setup_s is the median.
const setupReps = 25

// hardLimit bounds one invocation's wall time: past it, runs are canceled
// and the benchmark exits without a result rather than overrun its caller.
const hardLimit = 170 * time.Second

type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run. An operation is one
// RunContext call (sim-*), one figure regeneration (sweep) or one farm
// sweep from submission to its last result (farm).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms.p50", "ms"},
	{"points_per_s", "1/s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"system.build_ms", "ms"}, {"system.loop_ms", "ms"}, {"system.finish_ms", "ms"},
		{"system.fingerprint_ms", "ms"}, {"system.build_frac", "frac"},
		{"system.mallocs_per_run", "count"}, {"system.alloc_mb_per_run", "MB"},
		{"runtime.gc.self_frac", "frac"},
		{"event.fired", "count"}, {"event.ns_per_event", "ns"}, {"event.ring_residency", "count"},
	}
	for _, k := range kernels() {
		defs = append(defs, metricDef{k.name, "ns"})
	}
	for _, g := range shareGroups {
		defs = append(defs, metricDef{g + ".self_frac", "frac"})
	}
	defs = append(defs,
		metricDef{"profile.share_sum", "frac"},
		metricDef{"trace.overhead_ms", "ms"}, metricDef{"trace.overhead_frac", "frac"},
		metricDef{"trace.self_sum_frac", "frac"},
		metricDef{"session.sweep_ms", "ms"}, metricDef{"session.figures_ms", "ms"},
		metricDef{"session.figure_ms.max", "ms"}, metricDef{"session.cpu_util", "frac"},
		metricDef{"farm.first_result_ms", "ms"})
	for _, r := range farmRoutes {
		defs = append(defs, metricDef{"farm.http_ms." + r + ".p50", "ms"})
	}
	defs = append(defs,
		metricDef{"farm.http_requests_per_point", "count"},
		metricDef{"farm.result_kb_per_point", "KB"},
		metricDef{"farm.leases_per_point", "count"},
		metricDef{"model.sim_cycles", "cycles"}, metricDef{"model.chunks_committed", "count"},
		metricDef{"model.squashes", "count"}, metricDef{"model.commit_failures", "count"},
		metricDef{"model.commit_success_ratio", "frac"}, metricDef{"model.commit_frac", "frac"},
		metricDef{"model.squash_frac", "frac"}, metricDef{"model.commit_lat_mean", "cycles"},
		metricDef{"model.dirs_per_commit", "count"})
	for _, n := range trafficNames {
		defs = append(defs, metricDef{"mesh.msgs." + n, "count"})
	}
	return append(defs, metricDef{"mesh.flit_hops", "count"})
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// simSeed maps the benchmark seed onto a pinned simulation seed: odd seeds
// simulate seed 1, even seeds the held-out seed 2.
func simSeed(seed int64) int64 { return 2 - seed&1 }

func main() { os.Exit(run()) }

func run() int {
	var (
		wl        = flag.String("workload", "", "workload: sim-commit, sim-read, sweep or farm")
		seed      = flag.Int64("seed", 1, "benchmark seed; odd seeds simulate seed 1, even seeds seed 2")
		seconds   = flag.Int("seconds", 15, "measurement budget in seconds")
		traceFlag = flag.Int("trace", 0, "1 makes a traced run and reports per-layer metrics")
		outDir    = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for reports, spans and farm scratch files")
		writeDir  = flag.String("write-pins", "", "regenerate the fingerprint pins into this directory and exit")
	)
	flag.Parse()
	if *writeDir != "" {
		if err := regeneratePins(*writeDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0 or 1\n", workloads)
		return 2
	}
	tmp := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	b := &bench{wl: *wl, seed: *seed, budget: time.Duration(*seconds) * time.Second, tmp: tmp}
	host0 := readHost()
	var err error
	if *traceFlag == 1 {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("exceeded the %v limit", hardLimit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.report.Host = noiseBetween(host0, readHost())
	if b.report.Host.Busy {
		fmt.Fprintf(os.Stderr, "perfbench: busy host: other processes took %.0f%% of CPU capacity; do not use this run as a baseline\n",
			100*b.report.Host.OtherCPUFrac)
	}

	defs := endToEnd
	if *traceFlag == 1 {
		defs = perLayer
	}
	res := result{
		Correct:   b.tally.correct(),
		Attempted: b.tally.attempted, Failed: b.tally.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	b.report.Result = res
	b.report.ErrorRate = float64(res.Failed) / float64(max(res.Attempted, 1))
	b.report.FirstDivergence = b.tally.firstDivergence
	if err := b.writeReport(*outDir, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one invocation's state.
type bench struct {
	wl     string
	seed   int64
	budget time.Duration
	tmp    string

	tally   *tally
	metrics map[string]float64
	report  report
	spans   []span
}

// report is the full record of a run, written beside the result line.
type report struct {
	Workload        string               `json:"workload"`
	Seed            int64                `json:"seed"`
	SimSeed         int64                `json:"sim_seed"`
	Traced          bool                 `json:"traced"`
	Result          result               `json:"result"`
	ErrorRate       float64              `json:"error_rate"`
	FirstDivergence string               `json:"first_divergence,omitempty"`
	SetupS          []float64            `json:"setup_s_samples"`
	OpMS            *timing              `json:"op_ms,omitempty"`
	OpSamples       []float64            `json:"op_ms_samples,omitempty"`
	OpWallSamples   []float64            `json:"op_wall_ms_samples,omitempty"`
	GCCycles        uint32               `json:"gc_cycles"`
	GCCPUS          float64              `json:"gc_cpu_s"`
	Passes          int                  `json:"passes"`
	Kernels         map[string]timing    `json:"kernels_ns,omitempty"`
	Layers          map[string]layerTime `json:"span_layers,omitempty"`
	Host            hostNoise            `json:"host"`
}

// setup repeats the workload's one-time work and records the median; the
// last repetition's plan is the one used. The farm's set-up also brings a
// server and its workers up (and down again: every sweep gets a fresh one).
func (b *bench) setup(ctx context.Context) (*runner, error) {
	r := &runner{wl: b.wl, seed: simSeed(b.seed), tmp: b.tmp, par: runtime.GOMAXPROCS(0)}
	var samples []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		pl, err := makePlan(b.wl, r.seed)
		if err != nil {
			return nil, err
		}
		var rig *farmRig
		if b.wl == "farm" {
			if rig, err = startFarm(ctx, b.tmp, nil); err != nil {
				return nil, err
			}
		}
		samples = append(samples, time.Since(t).Seconds())
		if rig != nil {
			rig.stop()
		}
		r.plan = pl
	}
	b.tally = &tally{pins: r.plan.pins, seed: r.seed}
	r.tally = b.tally
	b.report.Workload, b.report.Seed, b.report.SimSeed = b.wl, b.seed, r.seed
	b.report.SetupS = samples
	b.metrics = map[string]float64{"setup_s": median(samples)}
	return r, nil
}

// measure runs passes until the next one would overrun the budget, always
// at least one, so every measured pass is complete.
func (b *bench) measure(ctx context.Context, r *runner, each func(i int)) []passResult {
	start := time.Now()
	var out []passResult
	for i := 0; ; i++ {
		each(i)
		t := time.Now()
		out = append(out, r.pass(ctx))
		last := time.Since(t)
		if time.Since(start)+last > b.budget || ctx.Err() != nil {
			return out
		}
	}
}

func (b *bench) untraced(ctx context.Context) error {
	r, err := b.setup(ctx)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, _ := gcCPU()
	passes := b.measure(ctx, r, func(int) {})
	gc1, _ := gcCPU()
	runtime.ReadMemStats(&ms1)
	b.report.GCCycles, b.report.GCCPUS = ms1.NumGC-ms0.NumGC, gc1-gc0
	var ops, walls []float64
	var opTime time.Duration
	var points int
	var cycles uint64
	for _, p := range passes {
		ops = append(ops, p.opsMS...)
		walls = append(walls, p.wallMS...)
		opTime += p.opTime
		points += p.points
		cycles += p.cycles
	}
	if len(ops) == 0 {
		return fmt.Errorf("no operation completed (first failure: %s)", b.tally.firstDivergence)
	}
	t := summarize(ops)
	b.report.OpMS, b.report.OpSamples, b.report.OpWallSamples = &t, ops, walls
	b.report.Passes = len(passes)
	b.metrics["op_ms.p50"] = t.Median
	b.metrics["points_per_s"] = float64(points) / opTime.Seconds()
	b.metrics["sim_cycles_per_s"] = float64(cycles) / opTime.Seconds()
	b.metrics["peak_rss_mb"] = peakRSSMB()
	return nil
}

// traced makes a warm-up pass and one untraced pass, the reference for the
// tracing overhead, then the traced passes under spans and a CPU profile,
// then (for sweep and farm) a split pass over every point, then the kernel
// samples. Without the warm-up, the reference would also pay the process's
// first-pass costs and the overhead would read negative. The sweep skips
// the warm-up: its long passes and split pass must fit the run's time
// limit on a slower host.
func (b *bench) traced(ctx context.Context) error {
	r, err := b.setup(ctx)
	if err != nil {
		return err
	}
	if b.wl != "sweep" {
		r.pass(ctx)
	}
	t := time.Now()
	r.pass(ctx)
	refWall := time.Since(t)

	tr, lay := newTracer(), newLayers()
	r.tr, r.lay = tr, lay
	root := tr.begin("run")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	gc0, busy0 := gcCPU()
	var tracedWall time.Duration
	var iter int
	var passStart time.Time
	passes := b.measure(ctx, r, func(i int) {
		if i > 0 {
			tr.end(iter)
			if i == 1 {
				tracedWall = time.Since(passStart)
			}
		}
		tr.setIter(i + 1)
		iter = tr.begin("iter")
		passStart = time.Now()
	})
	tr.end(iter)
	if len(passes) == 1 {
		tracedWall = time.Since(passStart)
	}
	gc1, busy1 := gcCPU()
	pprof.StopCPUProfile()
	tr.setIter(0)
	if b.wl == "sweep" || b.wl == "farm" {
		sp := tr.begin("split")
		r.splitPass(ctx)
		tr.end(sp)
	}
	sp := tr.begin("kernels")
	kern := sampleKernels(tr)
	tr.end(sp)
	tr.end(root)

	shares, _, err := profileShares(prof.Bytes())
	if err != nil {
		return err
	}
	b.spans = tr.spans
	b.report.Passes = len(passes)
	b.report.Kernels = map[string]timing{}
	for k, v := range kern {
		b.report.Kernels[k] = summarize(v)
	}
	m := b.metrics
	layers, selfSum := byName(tr.spans)
	b.report.Layers = layers
	m["trace.self_sum_frac"] = selfSum
	m["trace.overhead_ms"] = float64((tracedWall - refWall).Nanoseconds()) / 1e6
	m["trace.overhead_frac"] = tracedWall.Seconds()/refWall.Seconds() - 1
	m["runtime.gc.self_frac"] = ratio(gc1-gc0, max(busy1-busy0, 0))
	var shareSum float64
	for g, v := range shares {
		m[g+".self_frac"] = v
		shareSum += v
	}
	m["profile.share_sum"] = shareSum
	for k, v := range kern {
		m[k] = median(v)
	}
	systemMetrics(m, layers, lay)
	sessionMetrics(m, layers, tr.spans, lay)
	farmMetrics(m, lay)
	modelMetrics(m, &lay.model)
	return nil
}

func perCall(lt layerTime) float64 {
	if lt.Count == 0 {
		return 0
	}
	return float64(lt.TotalNS) / 1e6 / float64(lt.Count)
}

func systemMetrics(m map[string]float64, layers map[string]layerTime, lay *layers) {
	build, loop, finish := layers["system.build"], layers["system.loop"], layers["system.finish"]
	m["system.build_ms"] = perCall(build)
	m["system.loop_ms"] = perCall(loop)
	m["system.finish_ms"] = perCall(finish)
	m["system.fingerprint_ms"] = perCall(layers["system.fingerprint"])
	m["system.build_frac"] = ratio(float64(build.TotalNS), float64(build.TotalNS+loop.TotalNS+finish.TotalNS))
	m["system.mallocs_per_run"] = ratio(float64(lay.mallocs), float64(lay.splitRuns))
	m["system.alloc_mb_per_run"] = ratio(float64(lay.allocB)/(1<<20), float64(lay.splitRuns))
	var fired uint64
	for _, f := range lay.fired {
		fired += f
	}
	m["event.fired"] = float64(fired)
	m["event.ns_per_event"] = ratio(float64(loop.TotalNS), float64(lay.firedAll))
	m["event.ring_residency"] = ratio(float64(lay.model.ringResidency), float64(lay.model.runs))
}

func sessionMetrics(m map[string]float64, layers map[string]layerTime, spans []span, lay *layers) {
	m["session.sweep_ms"] = perCall(layers["session.sweep"])
	m["session.figures_ms"] = perCall(layers["session.figures"])
	var maxFig int64
	for _, s := range spans {
		if s.Name == "session.figure" {
			maxFig = max(maxFig, s.dur())
		}
	}
	m["session.figure_ms.max"] = float64(maxFig) / 1e6
	m["session.cpu_util"] = median(lay.sessionUtil)
}

func farmMetrics(m map[string]float64, lay *layers) {
	h := lay.http
	m["farm.first_result_ms"] = median(lay.firstMS)
	for _, r := range farmRoutes {
		m["farm.http_ms."+r+".p50"] = median(h.ms[r])
	}
	m["farm.http_requests_per_point"] = ratio(float64(h.requests), float64(lay.farmSwept))
	m["farm.result_kb_per_point"] = ratio(float64(h.resultBytes)/1024, float64(h.results))
	m["farm.leases_per_point"] = median(lay.leasesPerPt)
}

func modelMetrics(m map[string]float64, a *modelAcc) {
	m["model.sim_cycles"] = float64(a.cycles)
	m["model.chunks_committed"] = float64(a.committed)
	m["model.squashes"] = float64(a.squashes)
	m["model.commit_failures"] = float64(a.failures)
	m["model.commit_success_ratio"] = ratio(float64(a.committed), float64(a.committed+a.failures))
	m["model.commit_frac"] = ratio(float64(a.commitCyc), float64(a.totalCyc))
	m["model.squash_frac"] = ratio(float64(a.squashCyc), float64(a.totalCyc))
	m["model.commit_lat_mean"] = ratio(float64(a.latSum), float64(a.latN))
	m["model.dirs_per_commit"] = ratio(float64(a.dirsSum), float64(a.dirsN))
	for i, n := range trafficNames {
		m["mesh.msgs."+n] = float64(a.classes[i])
	}
	m["mesh.flit_hops"] = float64(a.flitHops)
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeReport writes the run's full report, and its spans when traced.
func (b *bench) writeReport(dir string, traced int) error {
	b.report.Traced = traced == 1
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", b.wl, b.seed, traced))
	data, err := json.MarshalIndent(b.report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".report.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if b.spans == nil {
		return nil
	}
	data, err = json.Marshal(b.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".spans.json", append(data, '\n'), 0o644)
}

// regeneratePins computes every pinned point's fingerprint in-process, for
// each pinned seed, and writes the pin files. The farm points run the way a
// farm worker runs them, from the spec's config, so the farm workload's
// check against these pins is a check against in-process fingerprints.
func regeneratePins(dir string) error {
	ctx := context.Background()
	for _, seed := range pinSeeds {
		got := map[string]string{}
		pin := func(wl, key string, res *sb.Result, err error) error {
			if err != nil {
				return fmt.Errorf("%s %s seed %d: %w", wl, key, seed, err)
			}
			got[wl+" "+key] = sb.FingerprintSHA(res)
			return nil
		}
		for _, wl := range workloads {
			pl, err := makePlan(wl, seed)
			if err != nil {
				return err
			}
			switch wl {
			case "sweep":
				s := sb.NewSession(sweepChunksPerCore, seed, nil)
				if err := s.SweepContext(ctx, pl.sweep, runtime.GOMAXPROCS(0)).Err(); err != nil {
					return err
				}
				for _, p := range pl.sweep {
					res, err := s.Result(p.App, p.Protocol, p.Cores)
					if err := pin(wl, pointLabel(p), res, err); err != nil {
						return err
					}
				}
			case "farm":
				for _, p := range pl.spec.Points {
					prof, cfg, err := pl.spec.Resolve(p)
					if err != nil {
						return err
					}
					res, err := sb.RunContext(ctx, prof, cfg)
					if err := pin(wl, pointLabel(p), res, err); err != nil {
						return err
					}
				}
			default:
				for _, s := range pl.sim {
					res, err := sb.RunContext(ctx, s.prof, s.cfg)
					if err := pin(wl, s.key, res, err); err != nil {
						return err
					}
				}
			}
		}
		if err := writePins(dir, seed, got); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: seed %d: %d pins\n", seed, len(got))
	}
	return nil
}
