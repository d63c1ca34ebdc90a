package scalablebulk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scalablebulk/internal/metrics"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
)

// Session runs and caches simulations for the figure generators, so figures
// that share configurations (most of them) do not repeat runs. Its
// SweepSpec describes every point it runs (Points aside: SweepContext takes
// its own list); each point's Config comes from SweepSpec.Config, the same
// derivation the farm uses. NewSession gives the figure sweep's strong
// scaling: ChunksPerCore at 64 processors, and smaller machines get
// proportionally more chunks per core over the same total work, exactly
// like running the paper's reference inputs on fewer threads. Set the
// spec's fields before the first Result/SweepContext call: the checkpoint
// journal keys entries by the point's ConfigHash.
//
// A Session is safe for concurrent use: the cache is a single-flight map, so
// any number of goroutines can ask for any mix of points and each simulation
// runs exactly once. Every simulation is an independent deterministic
// machine, so execution order and parallelism cannot affect any Result —
// only wall-clock time. The determinism tests in determinism_test.go hold
// serial and parallel sweeps to byte-identical output.
type Session struct {
	SweepSpec

	// CrashDir, when non-empty, receives one JSON crash bundle per
	// panicking point (panics are isolated per point either way — a panic
	// becomes that point's *CrashError while the rest of the sweep keeps
	// running). Set before first use.
	CrashDir string

	// OnProgress, when non-nil, receives a heartbeat every ProgressInterval
	// while SweepContext runs, plus one final heartbeat when the sweep ends.
	// It is called from a dedicated goroutine, never from sweep workers.
	OnProgress func(SweepProgress)
	// ProgressInterval is the heartbeat period; ≤ 0 selects 10 seconds.
	ProgressInterval time.Duration
	// Metrics, when non-nil, accumulates each completed run's collector and
	// traffic counters (see metrics.ObserveRun) plus live sweep_done /
	// sweep_total gauges, so a -telemetry HTTP endpoint can watch a soak.
	Metrics *metrics.Registry

	mu      sync.Mutex
	out     io.Writer
	cache   map[Point]*cacheEntry
	journal *Journal

	// nRestored counts points satisfied from the journal (SweepOutcome
	// reports per-sweep deltas).
	nRestored atomic.Int64
	// warmRestores counts the points whose machine BuildFrom restored from
	// a warm image.
	warmRestores atomic.Int64

	// testPointHook, when non-nil, runs at the start of each point's
	// simulation inside the point's panic isolation and may adjust its
	// Config — the test seam for injected panics, trace sinks and
	// mid-sweep cancellation.
	testPointHook func(Point, *Config)
}

// cacheEntry is a single-flight cache slot: the goroutine that creates the
// entry runs the simulation and closes done; everyone else blocks on done.
type cacheEntry struct {
	done chan struct{}
	res  *Result
	err  error
}

// Point identifies one figure-sweep simulation: an application under a
// protocol on a machine size.
type Point struct {
	App      string
	Protocol string
	Cores    int
}

// NewSession builds a figure-generation session: strong scaling of
// chunksPerCore (≤ 0 selects DefaultChunksPerCore) and seed.
func NewSession(chunksPerCore int, seed int64, out io.Writer) *Session {
	if chunksPerCore <= 0 {
		chunksPerCore = DefaultChunksPerCore
	}
	if out == nil {
		out = io.Discard
	}
	return &Session{SweepSpec: SweepSpec{ChunksPerCore: chunksPerCore, Seed: seed},
		out: out, cache: map[Point]*cacheEntry{}}
}

func (s *Session) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

// UseJournal attaches an open checkpoint journal: completed points are
// recorded to it and verified-complete entries are restored instead of
// re-run. A journal may be shared by several Sessions (entries are keyed by
// point and config hash). Attach before the first Result/SweepContext call.
func (s *Session) UseJournal(j *Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// Journal returns the attached journal, if any.
func (s *Session) Journal() *Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

// Result runs (or returns the cached) simulation of app × protocol × cores.
// Safe for concurrent use; concurrent requests for the same point share one
// run (single flight).
func (s *Session) Result(app, protocol string, cores int) (*Result, error) {
	return s.result(context.Background(), Point{app, protocol, cores}, new(WarmRunner), false)
}

// result runs p in its cache slot; wr and keep are as for run.
func (s *Session) result(ctx context.Context, p Point, wr *WarmRunner, keep bool) (*Result, error) {
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[Point]*cacheEntry{}
	}
	e, ok := s.cache[p]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		s.cache[p] = e
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			return nil, &AbortError{App: p.App, Protocol: p.Protocol,
				Cores: p.Cores, Cause: ctx.Err()}
		}
	}
	e.res, e.err = s.run(ctx, p, wr, keep)
	if e.err != nil && errors.Is(e.err, ErrAborted) {
		// An abort is a withdrawn budget, not a result: drop the cache slot
		// so a later call — e.g. a resumed sweep on this session — re-runs
		// the point instead of replaying the abort.
		s.mu.Lock()
		delete(s.cache, p)
		s.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// run builds and runs p through wr (keep as for WarmRunner.Run), or
// restores it from the journal.
func (s *Session) run(ctx context.Context, p Point, wr *WarmRunner, keep bool) (*Result, error) {
	prof, cfg, err := s.Resolve(p)
	if err != nil {
		return nil, err
	}
	hash := ConfigHash(cfg)
	if j := s.Journal(); j != nil {
		if r, ok := j.Lookup(p, hash); ok {
			s.nRestored.Add(1)
			if s.Metrics != nil {
				metrics.ObserveRun(s.Metrics, r.Coll, r.Traffic, r.RingResidency)
			}
			return r, nil
		}
	}
	start := time.Now()
	var before func(*Config)
	if s.testPointHook != nil {
		before = func(cfg *Config) { s.testPointHook(p, cfg) }
	}
	res, restored, err := wr.Run(ctx, p, prof, cfg, keep, before)
	if restored {
		s.warmRestores.Add(1)
	}
	var ce *CrashError
	if errors.As(err, &ce) && s.CrashDir != "" {
		ce.BundlePath, ce.WriteErr = WriteCrashBundle(s.CrashDir, ce.Report)
	}
	if err != nil {
		return nil, err
	}
	if j := s.Journal(); j != nil {
		if jerr := j.Record(p, hash, res, time.Since(start), ""); jerr != nil {
			// A completed point the journal cannot persist is a real
			// failure for a durable sweep: surface it rather than let a
			// resume silently redo (or worse, trust stale) work.
			return nil, fmt.Errorf("journal %s: %w", j.Path(), jerr)
		}
	}
	if s.Metrics != nil {
		metrics.ObserveRun(s.Metrics, res.Coll, res.Traffic, res.RingResidency)
	}
	return res, nil
}

// SweepPoints enumerates, in a fixed deterministic order, every simulation
// the full figure set needs: each application under each protocol at 32 and
// 64 processors, plus the 1-processor ScalableBulk baselines.
func (s *Session) SweepPoints() []Point {
	var pts []Point
	for _, prof := range Apps() {
		pts = append(pts, Point{prof.Name, ProtoScalableBulk, 1})
		for _, protocol := range Protocols {
			for _, cores := range []int{32, 64} {
				pts = append(pts, Point{prof.Name, protocol, cores})
			}
		}
	}
	return pts
}

// PointFailure is one failed sweep point (its error may be a *CrashError).
type PointFailure struct {
	Point Point
	Err   error
}

// SweepOutcome summarizes a sweep: it distinguishes "completed with point
// failures" (some points crashed or errored while the rest ran to the end)
// from "aborted" (the context was canceled or its deadline passed, leaving
// points unrun).
type SweepOutcome struct {
	// Points is the number of points requested.
	Points int
	// Completed counts points that produced a result (run, cached, or
	// restored from the journal).
	Completed int
	// Restored counts points satisfied from the checkpoint journal during
	// this sweep (a subset of Completed).
	Restored int
	// Failures lists failed points in input order, deduplicated. Aborted
	// points are not failures; they simply were not run.
	Failures []PointFailure
	// Aborted reports that the sweep stopped early on cancellation or
	// deadline.
	Aborted bool
}

// Err reduces the outcome to one error: the error of the earliest failing
// point in input order, ErrAborted for a clean-but-aborted sweep, nil
// otherwise.
func (o *SweepOutcome) Err() error {
	if len(o.Failures) > 0 {
		return o.Failures[0].Err
	}
	if o.Aborted {
		return ErrAborted
	}
	return nil
}

// SweepProgress is one heartbeat of a running sweep, delivered to
// Session.OnProgress.
type SweepProgress struct {
	// Done counts points resolved so far (completed or failed) out of Total.
	Done, Total int
	// Failed counts points resolved with an error so far.
	Failed int
	// Elapsed is the wall-clock time since the sweep started. ETA linearly
	// extrapolates the remaining points from the pace so far; it is zero
	// until the first point resolves.
	Elapsed, ETA time.Duration
	// LastPoint and LastFingerprint identify the most recently completed
	// point and the short hash of its ResultFingerprint — a quick visual
	// check that a resumed soak reproduces the previous runs.
	LastPoint       Point
	LastFingerprint string
	// Final marks the closing heartbeat sent after the last point resolves.
	Final bool
}

// SweepContext runs the points on a bounded worker pool with cancellation.
// Each worker claims a warm unit (see warm.go) and runs its points in order.
// When ctx is canceled, workers stop before their next point, in-flight
// simulations abort at their next cancellation poll, and the outcome reports
// Aborted. A panicking point is isolated into a *CrashError (and a crash
// bundle when CrashDir is set) while the remaining points keep running;
// every completed point is recorded in the attached journal, so an
// interrupted sweep resumes where it left off.
func (s *Session) SweepContext(ctx context.Context, points []Point, parallelism int) *SweepOutcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	units := s.warmUnits(points)
	if parallelism > len(units) {
		parallelism = len(units)
	}
	restored0 := s.nRestored.Load()
	type slot struct {
		ran bool
		err error
	}
	slots := make([]slot, len(points))
	work := make(chan []int, len(units))
	for _, u := range units {
		work <- u
	}
	close(work)

	// Sweep progress shared between workers and the heartbeat goroutine.
	start := time.Now()
	var done, failed atomic.Int64
	var lastMu sync.Mutex
	var last Point
	var lastFP string
	snapshot := func(final bool) SweepProgress {
		p := SweepProgress{
			Done: int(done.Load()), Total: len(points),
			Failed:  int(failed.Load()),
			Elapsed: time.Since(start), Final: final,
		}
		if p.Done > 0 {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(p.Done) * float64(p.Total-p.Done))
		}
		lastMu.Lock()
		p.LastPoint, p.LastFingerprint = last, lastFP
		lastMu.Unlock()
		if s.Metrics != nil {
			s.Metrics.Gauge("sweep_done").Set(float64(p.Done))
			s.Metrics.Gauge("sweep_total").Set(float64(p.Total))
		}
		return p
	}
	stopHB := make(chan struct{})
	hbDone := make(chan struct{})
	if s.OnProgress != nil || s.Metrics != nil {
		interval := s.ProgressInterval
		if interval <= 0 {
			interval = 10 * time.Second
		}
		go func() {
			defer close(hbDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if p := snapshot(false); s.OnProgress != nil {
						s.OnProgress(p)
					}
				case <-stopHB:
					return
				}
			}
		}()
	} else {
		close(hbDone)
	}

	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				var wr WarmRunner
				for n, i := range u {
					if ctx.Err() != nil {
						return // unrun points stay !ran
					}
					r, err := s.result(ctx, points[i], &wr, n < len(u)-1)
					slots[i] = slot{ran: true, err: err}
					if err != nil {
						failed.Add(1)
					} else if r != nil {
						lastMu.Lock()
						last, lastFP = points[i], fingerprintHash(ResultFingerprint(r))[:12]
						lastMu.Unlock()
					}
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stopHB)
	<-hbDone
	if p := snapshot(true); s.OnProgress != nil {
		s.OnProgress(p)
	}
	// Aborted comes from the points, not from ctx: a ctx canceled after the
	// last point resolved has aborted nothing.
	out := &SweepOutcome{Points: len(points)}
	seen := map[Point]bool{}
	for i, sl := range slots {
		switch {
		case !sl.ran:
			out.Aborted = true // not run: only happens on cancellation
		case sl.err == nil:
			out.Completed++
		case errors.Is(sl.err, ErrAborted):
			out.Aborted = true
		case !seen[points[i]]:
			seen[points[i]] = true
			out.Failures = append(out.Failures, PointFailure{points[i], sl.err})
		}
	}
	out.Restored = int(s.nRestored.Load() - restored0)
	return out
}

// Inject stores res as the completed result for p, as if the session had run
// the point itself: later Result calls and figure renders are served from
// the cache. sbfig -server injects results computed by remote farm workers
// so figures render locally from remote runs. A point that already has a
// cache slot keeps it (injection never overwrites a run in flight or a
// completed result).
func (s *Session) Inject(p Point, res *Result) {
	e := &cacheEntry{done: make(chan struct{}), res: res}
	close(e.done)
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[Point]*cacheEntry{}
	}
	if _, ok := s.cache[p]; !ok {
		s.cache[p] = e
	}
	s.mu.Unlock()
}

func names(ps []Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// executionTime generates one Figure 7/8 panel: per-app normalized execution
// time breakdowns and speedups for one protocol, 32 and 64 processors,
// normalized to the single-processor ScalableBulk run on the same work.
func (s *Session) executionTime(title string, apps []string, protocol string) error {
	s.printf("%s — execution time normalized to 1-processor ScalableBulk (protocol %s)\n", title, protocol)
	s.printf("%-16s %7s %9s %9s %9s %9s %9s %9s\n",
		"app_procs", "speedup", "normtime", "useful", "cachemiss", "commit", "squash", "cycles")
	var avg [2]struct {
		speedup, norm float64
		n             int
	}
	for _, app := range apps {
		base, err := s.Result(app, ProtoScalableBulk, 1)
		if err != nil {
			return err
		}
		for i, cores := range []int{32, 64} {
			r, err := s.Result(app, protocol, cores)
			if err != nil {
				return err
			}
			speedup := float64(base.Cycles) / float64(r.Cycles)
			norm := 1 / speedup
			tot := float64(r.Breakdown.Total())
			s.printf("%-16s %7.1f %9.4f %9.3f %9.3f %9.3f %9.3f %9d\n",
				fmt.Sprintf("%s_%d", app, cores), speedup, norm,
				float64(r.Breakdown.Useful)/tot, float64(r.Breakdown.CacheMiss)/tot,
				float64(r.Breakdown.Commit)/tot, float64(r.Breakdown.Squash)/tot,
				r.Cycles)
			avg[i].speedup += speedup
			avg[i].norm += norm
			avg[i].n++
		}
	}
	for i, cores := range []int{32, 64} {
		s.printf("%-16s %7.1f %9.4f\n",
			fmt.Sprintf("AVERAGE_%d", cores), avg[i].speedup/float64(avg[i].n), avg[i].norm/float64(avg[i].n))
	}
	return nil
}

// executionTimes generates Figure 7/8: one executionTime panel per
// evaluated protocol.
func (s *Session) executionTimes(title string, apps []string) error {
	for _, p := range Protocols {
		if err := s.executionTime(title, apps, p); err != nil {
			return err
		}
	}
	return nil
}

// dirsPerCommit generates Figure 9/10: average directories accessed per
// chunk commit under ScalableBulk, split into write groups and read-only
// groups, for 32 and 64 processors.
func (s *Session) dirsPerCommit(title string, apps []string) error {
	s.printf("%s — directories accessed per chunk commit (ScalableBulk)\n", title)
	s.printf("%-16s %8s %8s %8s\n", "app_procs", "total", "write", "readonly")
	var sumT, sumW [2]float64
	for _, app := range apps {
		for i, cores := range []int{32, 64} {
			r, err := s.Result(app, ProtoScalableBulk, cores)
			if err != nil {
				return err
			}
			tot, wr := r.Coll.MeanDirsPerCommit()
			s.printf("%-16s %8.2f %8.2f %8.2f\n",
				fmt.Sprintf("%s_%d", app, cores), tot, wr, tot-wr)
			sumT[i] += tot
			sumW[i] += wr
		}
	}
	n := float64(len(apps))
	for i, cores := range []int{32, 64} {
		s.printf("%-16s %8.2f %8.2f %8.2f\n",
			fmt.Sprintf("AVERAGE_%d", cores), sumT[i]/n, sumW[i]/n, (sumT[i]-sumW[i])/n)
	}
	return nil
}

// dirsDistribution generates Figure 11/12: the per-app distribution of the
// number of directories accessed per commit at 64 processors.
func (s *Session) dirsDistribution(title string, apps []string) error {
	s.printf("%s — %% of commits accessing N directories (ScalableBulk, 64 procs)\n", title)
	s.printf("%-14s", "app")
	for i := 0; i <= 14; i++ {
		s.printf("%6d", i)
	}
	s.printf("%6s\n", "more")
	for _, app := range apps {
		r, err := s.Result(app, ProtoScalableBulk, 64)
		if err != nil {
			return err
		}
		d := r.Coll.DirsDistribution(14)
		s.printf("%-14s", app)
		for _, v := range d {
			s.printf("%6.1f", v)
		}
		s.printf("\n")
	}
	return nil
}

// commitLatency generates Figure 13, the chunk-commit latency
// characterization: the all-application mean per protocol at 32 and 64
// processors (the paper's headline numbers are 74/402/107/98 at 32p and
// 91/411/153/2954 at 64p) and a latency histogram per protocol at 64
// processors.
func (s *Session) commitLatency(title string, apps []string) error {
	s.printf("%s — chunk commit latency\n", title)
	for _, cores := range []int{32, 64} {
		s.printf("%d processors:\n", cores)
		for _, protocol := range Protocols {
			var all []uint32
			var sum float64
			for _, app := range apps {
				r, err := s.Result(app, protocol, cores)
				if err != nil {
					return err
				}
				all = append(all, r.Coll.CommitLat...)
			}
			for _, v := range all {
				sum += float64(v)
			}
			mean := sum / float64(len(all))
			s.printf("  %-13s mean=%7.0f cycles", protocol, mean)
			if cores == 64 {
				// Histogram like the paper's distribution plots.
				width, buckets := latencyBuckets(protocol)
				h := histogram(all, width, buckets)
				s.printf("  hist(width=%d):", width)
				for _, v := range h {
					s.printf(" %4.1f%%", v)
				}
			}
			s.printf("\n")
		}
	}
	return nil
}

func latencyBuckets(protocol string) (width uint32, buckets int) {
	switch protocol {
	case ProtoBulkSC, ProtoSEQ:
		return 500, 10
	case ProtoTCC:
		return 100, 10
	default:
		return 50, 10
	}
}

func histogram(vals []uint32, width uint32, buckets int) []float64 {
	h := make([]float64, buckets)
	for _, v := range vals {
		b := int(v / width)
		if b >= buckets {
			b = buckets - 1
		}
		h[b]++
	}
	for i := range h {
		h[i] = h[i] * 100 / float64(len(vals))
	}
	return h
}

// bottleneckRatio generates Figure 14/15 for ScalableBulk, TCC and SEQ at
// 64 processors (BulkSC forms no groups and is omitted, as in the paper).
func (s *Session) bottleneckRatio(title string, apps []string) error {
	s.printf("%s — bottleneck ratio at 64 processors\n", title)
	s.printf("%-14s %12s %12s %12s\n", "app", ProtoScalableBulk, ProtoTCC, ProtoSEQ)
	sums := map[string]float64{}
	for _, app := range apps {
		s.printf("%-14s", app)
		for _, protocol := range []string{ProtoScalableBulk, ProtoTCC, ProtoSEQ} {
			r, err := s.Result(app, protocol, 64)
			if err != nil {
				return err
			}
			br := r.Coll.BottleneckRatio()
			sums[protocol] += br
			s.printf(" %12.2f", br)
		}
		s.printf("\n")
	}
	s.printf("%-14s", "AVERAGE")
	for _, protocol := range []string{ProtoScalableBulk, ProtoTCC, ProtoSEQ} {
		s.printf(" %12.2f", sums[protocol]/float64(len(apps)))
	}
	s.printf("\n")
	return nil
}

// chunkQueue generates Figure 16/17: average machine-wide chunk queue
// lengths in TCC and SEQ at 64 processors (chunks do not queue in
// ScalableBulk, §6.4.2).
func (s *Session) chunkQueue(title string, apps []string) error {
	s.printf("%s — chunk queue length at 64 processors\n", title)
	s.printf("%-14s %10s %10s\n", "app", ProtoTCC, ProtoSEQ)
	for _, app := range apps {
		s.printf("%-14s", app)
		for _, protocol := range []string{ProtoTCC, ProtoSEQ} {
			r, err := s.Result(app, protocol, 64)
			if err != nil {
				return err
			}
			s.printf(" %10.2f", r.Coll.MeanQueueLength())
		}
		s.printf("\n")
	}
	return nil
}

// traffic generates Figure 18/19: message counts by class at 64 processors,
// normalized to TCC's total for the same application.
func (s *Session) traffic(title string, apps []string) error {
	s.printf("%s — messages by class at 64 processors, %% of TCC total\n", title)
	s.printf("%-12s %-13s %8s %8s %8s %8s %8s %8s\n",
		"app", "protocol", "total", "MemRd", "ShRd", "DirtyRd", "LargeC", "SmallC")
	for _, app := range apps {
		var tccTotal float64
		for _, protocol := range []string{ProtoTCC, ProtoScalableBulk, ProtoSEQ, ProtoBulkSC} {
			r, err := s.Result(app, protocol, 64)
			if err != nil {
				return err
			}
			cls := stats.TrafficClasses(r.Traffic.ByKind)
			var total uint64
			for _, v := range cls {
				total += v
			}
			if protocol == ProtoTCC {
				tccTotal = float64(total)
			}
			s.printf("%-12s %-13s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				app, protocol, 100*float64(total)/tccTotal,
				100*float64(cls[msg.ClassMemRd])/tccTotal,
				100*float64(cls[msg.ClassRemoteShRd])/tccTotal,
				100*float64(cls[msg.ClassRemoteDirtyRd])/tccTotal,
				100*float64(cls[msg.ClassLargeC])/tccTotal,
				100*float64(cls[msg.ClassSmallC])/tccTotal)
		}
	}
	return nil
}

// SquashSummary reports the §6.1 squash statistics for ScalableBulk at 64
// processors: the paper measured 1.5% of chunks squashed by data conflicts
// and 2.3% by signature aliasing.
func (s *Session) SquashSummary() error {
	apps := names(Apps())
	s.printf("Squash classification (ScalableBulk, 64 processors, %% of committed chunks)\n")
	s.printf("%-14s %10s %10s\n", "app", "conflict%", "aliasing%")
	var sc, sa float64
	for _, app := range apps {
		r, err := s.Result(app, ProtoScalableBulk, 64)
		if err != nil {
			return err
		}
		c := 100 * float64(r.Coll.SquashTrueConflict) / float64(r.ChunksCommitted)
		a := 100 * float64(r.Coll.SquashAliasing) / float64(r.ChunksCommitted)
		s.printf("%-14s %9.1f%% %9.1f%%\n", app, c, a)
		sc += c
		sa += a
	}
	n := float64(len(apps))
	s.printf("%-14s %9.1f%% %9.1f%%\n", "AVERAGE", sc/n, sa/n)
	return nil
}

// figures is every regenerable figure in order: its number, the title its
// header prints, the applications it covers and its renderer.
var figures = []struct {
	id     int
	title  string
	apps   func() []Profile
	render func(s *Session, title string, apps []string) error
}{
	{7, "Figure 7 (SPLASH-2)", Splash2, (*Session).executionTimes},
	{8, "Figure 8 (PARSEC)", Parsec, (*Session).executionTimes},
	{9, "Figure 9 (SPLASH-2)", Splash2, (*Session).dirsPerCommit},
	{10, "Figure 10 (PARSEC)", Parsec, (*Session).dirsPerCommit},
	{11, "Figure 11 (SPLASH-2)", Splash2, (*Session).dirsDistribution},
	{12, "Figure 12 (PARSEC)", Parsec, (*Session).dirsDistribution},
	{13, "Figure 13", Apps, (*Session).commitLatency},
	{14, "Figure 14 (SPLASH-2)", Splash2, (*Session).bottleneckRatio},
	{15, "Figure 15 (PARSEC)", Parsec, (*Session).bottleneckRatio},
	{16, "Figure 16 (SPLASH-2)", Splash2, (*Session).chunkQueue},
	{17, "Figure 17 (PARSEC)", Parsec, (*Session).chunkQueue},
	{18, "Figure 18 (SPLASH-2)", Splash2, (*Session).traffic},
	{19, "Figure 19 (PARSEC)", Parsec, (*Session).traffic},
}

// FigureIDs lists every regenerable figure in order.
func FigureIDs() []int {
	ids := make([]int, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figure renders one figure by number; Figures 7 and 8 render all four
// protocol panels.
func (s *Session) Figure(id int) error {
	for _, f := range figures {
		if f.id == id {
			return f.render(s, f.title, names(f.apps()))
		}
	}
	return fmt.Errorf("no figure %d (have 7–19)", id)
}
