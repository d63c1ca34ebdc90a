package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	sb "scalablebulk"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/metrics"
	"scalablebulk/internal/system"
)

// simPoint is one simulation of the sim-* workloads: a workload source or
// application model, a protocol, a machine size and a per-core chunk count.
type simPoint struct {
	Src, Proto string
	Cores, CPC int
}

func (p simPoint) String() string {
	return fmt.Sprintf("%s/%s/%d/%d", p.Src, p.Proto, p.Cores, p.CPC)
}

// resolve materializes the point's profile and Table 2 config.
func (p simPoint) resolve(seed int64) (sb.Profile, sb.Config, error) {
	cfg := sb.DefaultConfig(p.Cores, p.Proto)
	cfg.ChunksPerCore = p.CPC
	cfg.Seed = seed
	if prof, ok := sb.AppByName(p.Src); ok {
		return prof, cfg, nil
	}
	if prof, ok := sb.WorkloadProfile(p.Src); ok {
		cfg.Workload = p.Src
		return prof, cfg, nil
	}
	return sb.Profile{}, cfg, fmt.Errorf("unknown application or workload source %q", p.Src)
}

// simCommitPoints are commit-bound: commit and squash make up 50–98% of
// simulated cycles, so the event loop, the protocol engines, directory group
// formation and the signatures do most of the work.
var simCommitPoints = []simPoint{
	{"zipf", sb.ProtoScalableBulk, 64, 8},
	{"zipf", sb.ProtoTCC, 64, 8},
	{"zipf", sb.ProtoSEQ, 64, 8},
	{"zipf", sb.ProtoBulkSC, 64, 8},
	{"convoy", sb.ProtoScalableBulk, 64, 16},
	{"convoy", sb.ProtoTCC, 64, 16},
	{"convoy", sb.ProtoScalableBulk, 256, 4},
}

// simReadPoints are miss-bound: commit and squash are about 0% of cycles and
// cache misses dominate, which drives the event engine, the mesh and the
// directory through the read path instead.
var simReadPoints = []simPoint{
	{"stormdir", sb.ProtoScalableBulk, 64, 64},
	{"stormdir", sb.ProtoTCC, 64, 64},
	{"FFT", sb.ProtoScalableBulk, 64, 64},
	{"FFT", sb.ProtoTCC, 64, 64},
	{"Ocean", sb.ProtoScalableBulk, 64, 32},
}

// sweepChunksPerCore sizes the figure sweep (the smallest Session size).
const sweepChunksPerCore = 1

// farmPoints are 18 application models × every registered protocol ×
// {1, 2, 4} cores. They are application-model labels only: points labelled
// with a workload-source name fail farm config-hash verification (the
// server hashes the config before the source is resolved into it).
func farmPoints() []sb.Point {
	var pts []sb.Point
	for _, app := range sb.Apps() {
		for _, proto := range sb.RegisteredProtocols() {
			for _, cores := range []int{1, 2, 4} {
				pts = append(pts, sb.Point{App: app.Name, Protocol: proto.Name, Cores: cores})
			}
		}
	}
	return pts
}

func farmSpec(seed int64) *farm.SweepSpec {
	return &farm.SweepSpec{ChunksPerCore: 1, Scaling: farm.ScalingFixed, Seed: seed, Points: farmPoints()}
}

func pointLabel(p sb.Point) string { return fmt.Sprintf("%s/%s/%d", p.App, p.Protocol, p.Cores) }

// simRun is one resolved sim-* point.
type simRun struct {
	key  string
	prof sb.Profile
	cfg  sb.Config
}

// plan is the outcome of set-up: pins and the resolved point list.
type plan struct {
	pins  pinSet
	sim   []simRun
	sweep []sb.Point
	spec  *farm.SweepSpec
}

// makePlan is the one-time work before a workload's first operation:
// loading the pins and resolving every point through the registries.
func makePlan(wl string, seed int64) (*plan, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	pl := &plan{pins: pins}
	switch wl {
	case "sim-commit", "sim-read":
		pts := simCommitPoints
		if wl == "sim-read" {
			pts = simReadPoints
		}
		for _, p := range pts {
			prof, cfg, err := p.resolve(seed)
			if err != nil {
				return nil, err
			}
			pl.sim = append(pl.sim, simRun{p.String(), prof, cfg})
		}
	case "sweep":
		pl.sweep = sb.NewSession(sweepChunksPerCore, seed, nil).SweepPoints()
		for _, p := range pl.sweep {
			cfg := sb.SweepPointConfig(p, sweepChunksPerCore, seed)
			if _, err := sb.ResolvePointProfile(p.App, &cfg); err != nil {
				return nil, err
			}
		}
	case "farm":
		pl.spec = farmSpec(seed)
		if err := pl.spec.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return pl, nil
}

// passResult is what one unit of work measured: a sim-* pass over its
// points, one figure sweep, or one farm sweep.
type passResult struct {
	opsMS  []float64 // host ms per operation, net of steal
	wallMS []float64 // the same, as wall time
	opTime time.Duration
	points int
	cycles uint64
}

func (pr *passResult) add(wall, net time.Duration, points int, cycles uint64) {
	pr.opsMS = append(pr.opsMS, float64(net.Nanoseconds())/1e6)
	pr.wallMS = append(pr.wallMS, float64(wall.Nanoseconds())/1e6)
	pr.opTime += net
	pr.points += points
	pr.cycles += cycles
}

// runner drives one workload. tr and lay are nil in untraced phases.
type runner struct {
	wl    string
	seed  int64
	plan  *plan
	tally *tally
	tmp   string // scratch directory for farm journals
	par   int
	tr    *tracer
	lay   *layers
}

// pass runs one unit of the workload. Every pass starts from the same
// memory state: the previous pass's garbage collected and its pages
// returned to the OS, as in a fresh process. Otherwise a figure sweep
// following another inherits its multi-gigabyte heap and runs faster than
// the first one did.
func (r *runner) pass(ctx context.Context) passResult {
	debug.FreeOSMemory()
	switch r.wl {
	case "sweep":
		return r.sweepIter(ctx)
	case "farm":
		return r.farmIter(ctx)
	default:
		return r.simPass(ctx)
	}
}

// fingerprint is FingerprintSHA inside a span.
func (r *runner) fingerprint(res *sb.Result) string {
	sp := r.tr.begin("system.fingerprint")
	defer r.tr.end(sp)
	return sb.FingerprintSHA(res)
}

// simPass runs every point once: through RunContext when untraced, and
// split into Build, Start+Step loop and Finish when traced.
func (r *runner) simPass(ctx context.Context) passResult {
	var pr passResult
	for _, s := range r.plan.sim {
		var res *sb.Result
		var wall, net time.Duration
		var err error
		if r.tr == nil {
			c := startOp()
			res, err = sb.RunContext(ctx, s.prof, s.cfg)
			wall, net = c.stop()
		} else {
			res, wall, err = r.splitRun(ctx, s.key, s.prof, s.cfg)
			net = wall
		}
		if err != nil {
			r.tally.errored(r.wl, s.key, err)
			continue
		}
		pr.add(wall, net, 1, uint64(res.Cycles))
		r.tally.check(r.wl, s.key, r.fingerprint(res))
		r.lay.observe(s.key, res)
	}
	return pr
}

// splitRun is RunContext's work split at the layer boundaries, with a span
// around each part and the allocation deltas of the whole run.
func (r *runner) splitRun(ctx context.Context, key string, prof sb.Profile, cfg sb.Config) (*sb.Result, time.Duration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	sp := r.tr.begin("system.build")
	m, err := system.Build(prof, cfg)
	r.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.tr.begin("system.loop")
	err = stepToEnd(ctx, m, cfg)
	r.tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = r.tr.begin("system.finish")
	res, err := m.Finish()
	r.tr.end(sp)
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	r.lay.split(key, m.Eng.Fired(), after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	return res, d, nil
}

// stepToEnd is RunContext's serial event loop: start every processor and
// step until all are done, failing on an empty queue, the cycle budget or
// cancellation.
func stepToEnd(ctx context.Context, m *system.Machine, cfg sb.Config) error {
	m.Start()
	for steps := 1; !m.AllDone(); steps++ {
		if !m.Eng.Step() {
			return m.Deadlock("event queue empty", false)
		}
		if m.Now() > cfg.MaxCycles {
			return m.Deadlock(fmt.Sprintf("exceeded MaxCycles=%d", cfg.MaxCycles), true)
		}
		if steps%4096 == 0 && ctx.Err() != nil {
			return m.Abort(ctx.Err())
		}
	}
	return nil
}

// sweepIter regenerates every figure on a fresh Session: SweepContext over
// all SweepPoints, then every figure render. The operation time covers both.
func (r *runner) sweepIter(ctx context.Context) passResult {
	var pr passResult
	sp := r.tr.begin("session.new")
	s := sb.NewSession(sweepChunksPerCore, r.seed, nil)
	r.tr.end(sp)

	c := startOp()
	cpu0 := processCPU()
	sp = r.tr.begin("session.sweep")
	out := s.SweepContext(ctx, r.plan.sweep, r.par)
	r.tr.end(sp)
	sweepWall, sweepCPU := time.Since(c.t), processCPU()-cpu0
	figErrs := map[int]error{}
	sp = r.tr.begin("session.figures")
	for _, id := range sb.FigureIDs() {
		fsp := r.tr.begin("session.figure")
		if err := s.Figure(id); err != nil {
			figErrs[id] = err
		}
		r.tr.end(fsp)
	}
	r.tr.end(sp)
	wall, net := c.stop()
	r.lay.sessionCPU(sweepCPU, sweepWall, r.par)

	failed := map[sb.Point]error{}
	for _, f := range out.Failures {
		failed[f.Point] = f.Err
	}
	if out.Aborted {
		// Unrun points would run now if asked for; count them as failed.
		for _, p := range r.plan.sweep {
			r.tally.errored(r.wl, pointLabel(p), sb.ErrAborted)
		}
		return pr
	}
	sp = r.tr.begin("session.verify")
	var cycles uint64
	for _, p := range r.plan.sweep {
		key := pointLabel(p)
		if err, ok := failed[p]; ok {
			r.tally.errored(r.wl, key, err)
			continue
		}
		res, err := s.Result(p.App, p.Protocol, p.Cores)
		if err != nil {
			r.tally.errored(r.wl, key, err)
			continue
		}
		cycles += uint64(res.Cycles)
		r.tally.check(r.wl, key, r.fingerprint(res))
		r.lay.observe(key, res)
	}
	r.tr.end(sp)
	for _, id := range sb.FigureIDs() {
		if err, ok := figErrs[id]; ok {
			r.tally.errored(r.wl, fmt.Sprintf("figure%d", id), err)
		}
	}
	if len(failed) == 0 && len(figErrs) == 0 {
		pr.add(wall, net, len(r.plan.sweep), cycles)
	}
	return pr
}

// farmIter runs one farm sweep on a fresh server, so nothing dedupes. The
// operation time runs from RunSweep's start to its return after the last
// result is applied.
func (r *runner) farmIter(ctx context.Context) passResult {
	var pr passResult
	spec := r.plan.spec
	sp := r.tr.begin("farm.start")
	rig, err := startFarm(ctx, r.tmp, r.lay.httpClient())
	r.tr.end(sp)
	if err != nil {
		for _, p := range spec.Points {
			r.tally.errored(r.wl, pointLabel(p), err)
		}
		return pr
	}
	client := &farm.Client{Base: rig.base, HTTP: r.lay.httpClient()}
	results := make(map[sb.Point]*sb.Result, len(spec.Points))
	var first time.Duration
	c := startOp()
	sp = r.tr.begin("farm.run_sweep")
	out, err := client.RunSweep(ctx, spec, func(p farm.Point, res *sb.Result, _ bool) {
		if first == 0 {
			first = time.Since(c.t)
		}
		results[p] = res
	})
	r.tr.end(sp)
	wall, net := c.stop()
	if r.lay != nil && err == nil {
		sp = r.tr.begin("farm.progress")
		prog, perr := (&farm.Client{Base: rig.base}).Progress(ctx, spec.ID())
		r.tr.end(sp)
		if perr == nil {
			r.lay.farmSweep(first, prog)
		}
	}
	sp = r.tr.begin("farm.stop")
	rig.stop()
	r.tr.end(sp)

	failed := map[sb.Point]error{}
	if out != nil {
		for _, f := range out.Failures {
			failed[f.Point] = f.Err
		}
	}
	sp = r.tr.begin("farm.verify")
	var cycles uint64
	for _, p := range spec.Points {
		key := pointLabel(p)
		res, ok := results[p]
		switch {
		case failed[p] != nil:
			r.tally.errored(r.wl, key, failed[p])
		case !ok && err != nil:
			r.tally.errored(r.wl, key, err)
		case !ok:
			r.tally.errored(r.wl, key, errors.New("no result"))
		default:
			cycles += uint64(res.Cycles)
			r.tally.check(r.wl, key, r.fingerprint(res))
			r.lay.observe(key, res)
		}
	}
	r.tr.end(sp)
	if err == nil && len(failed) == 0 && len(results) == len(spec.Points) {
		pr.add(wall, net, len(spec.Points), cycles)
	}
	return pr
}

// splitPass runs each point of the sweep or farm workload once, serially,
// split at the layer boundaries like a traced sim-* pass. Those workloads
// run their simulations inside a Session or a farm worker, where the
// benchmark cannot place spans.
func (r *runner) splitPass(ctx context.Context) {
	type point struct {
		key  string
		prof sb.Profile
		cfg  sb.Config
		err  error
	}
	var pts []point
	switch r.wl {
	case "sweep":
		for _, p := range r.plan.sweep {
			cfg := sb.SweepPointConfig(p, sweepChunksPerCore, r.seed)
			prof, err := sb.ResolvePointProfile(p.App, &cfg)
			pts = append(pts, point{pointLabel(p), prof, cfg, err})
		}
	case "farm":
		for _, p := range r.plan.spec.Points {
			prof, cfg, err := r.plan.spec.Resolve(p)
			pts = append(pts, point{pointLabel(p), prof, cfg, err})
		}
	}
	for _, p := range pts {
		if p.err != nil {
			r.tally.errored(r.wl, p.key, p.err)
			continue
		}
		res, _, err := r.splitRun(ctx, p.key, p.prof, p.cfg)
		if err != nil {
			r.tally.errored(r.wl, p.key, err)
			continue
		}
		r.tally.check(r.wl, p.key, r.fingerprint(res))
		r.lay.observe(p.key, res)
	}
}

// farmRig is one in-process farm: a server with sbserver's defaults and a
// journal in a scratch directory, on a loopback listener, with two workers.
type farmRig struct {
	base   string
	dir    string
	hs     *http.Server
	served chan struct{}
	j      *sb.Journal
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// farmWorkers is the worker count; each worker runs one point at a time.
const farmWorkers = 2

// startFarm brings a farm up and returns once both workers have made their
// first (empty) lease poll. Every sweep therefore starts at the same point
// of the workers' idle-poll cycle (LeaseTTL/10 = 1 s), which keeps that
// wait out of the run-to-run noise.
func startFarm(ctx context.Context, tmp string, hc *http.Client) (*farmRig, error) {
	dir, err := os.MkdirTemp(tmp, "farm-")
	if err != nil {
		return nil, err
	}
	j, err := sb.OpenJournal(filepath.Join(dir, "farm.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	reg := metrics.NewRegistry()
	srv := farm.NewServer(farm.Options{
		LeaseTTL: 10 * time.Second, PoisonAfter: 3, MaxAttempts: 3, Seed: 1,
		SSEPing: 5 * time.Second, EventHistory: 8192,
		Journal: j, Metrics: reg,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	mux := metrics.Handler(reg)
	api := srv.Handler()
	mux.Handle("/v1/", api)
	mux.Handle("/api/v1/", api)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	rig := &farmRig{base: "http://" + ln.Addr().String(), dir: dir, j: j,
		hs: &http.Server{Handler: mux}, served: make(chan struct{})}
	go func() {
		defer close(rig.served)
		rig.hs.Serve(ln)
	}()
	wctx, cancel := context.WithCancel(ctx)
	rig.cancel = cancel
	for i := 1; i <= farmWorkers; i++ {
		w := &farm.Worker{Client: &farm.Client{Base: rig.base, HTTP: hc}, ID: fmt.Sprintf("w%d", i), Parallel: 1}
		rig.wg.Add(1)
		go func() {
			defer rig.wg.Done()
			w.Run(wctx)
		}()
	}
	probe := &farm.Client{Base: rig.base}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, err := probe.FarmStatus(ctx, 0)
		if err == nil && len(fs.Workers) >= farmWorkers {
			return rig, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			rig.stop()
			return nil, fmt.Errorf("farm workers did not poll within 10s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop cancels the workers, waits for them, then closes the server and the
// journal and removes the scratch directory. The journal is scratch, so its
// close error does not matter.
func (f *farmRig) stop() {
	f.cancel()
	f.wg.Wait()
	f.hs.Close()
	<-f.served
	f.j.Close()
	os.RemoveAll(f.dir)
}
