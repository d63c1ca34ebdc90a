package scalablebulk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scalablebulk/internal/metrics"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/workload"
)

// Session runs and caches simulations for the figure generators, so figures
// that share configurations (most of them) do not repeat runs. A Session is
// sized by ChunksPerCore at 64 processors; smaller machines get
// proportionally more chunks per core (strong scaling over the same total
// work), exactly like running the paper's reference inputs on fewer threads.
//
// A Session is safe for concurrent use: the cache is a single-flight map, so
// any number of goroutines can ask for any mix of points and each simulation
// runs exactly once. Every simulation is an independent deterministic
// machine, so execution order and parallelism cannot affect any Result —
// only wall-clock time. The determinism tests in determinism_test.go hold
// serial and parallel sweeps to byte-identical output.
type Session struct {
	// ChunksPerCore at 64 cores; the whole-problem work is 64× this.
	ChunksPerCore int
	// Seed makes every run deterministic.
	Seed int64

	// Configure, when non-nil, adjusts each point's materialized Config
	// before it runs (fault profiles, budgets, RunTimeout). It must be set
	// before the first Result/Sweep call and be deterministic: the
	// checkpoint journal keys entries by the configured Config's hash.
	Configure func(*Config)
	// Retry, when non-nil, retries transient MaxCycles aborts under fault
	// profiles with escalated cycle budgets (see RunWithRetry). Set before
	// first use.
	Retry *RetryPolicy
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
	cache   map[runKey]*cacheEntry
	journal *Journal

	// nRestored counts points satisfied from the journal (SweepOutcome
	// reports per-sweep deltas).
	nRestored atomic.Int64

	// testPointHook, when non-nil, runs at the start of each point's
	// simulation inside the worker's panic isolation — the test seam for
	// injected panics and mid-sweep cancellation.
	testPointHook func(Point)
}

type runKey struct {
	app      string
	protocol string
	cores    int
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

// NewSession builds a figure-generation session. chunksPerCore ≤ 0 selects
// a default sized for minutes-scale regeneration of every figure.
func NewSession(chunksPerCore int, seed int64, out io.Writer) *Session {
	if chunksPerCore <= 0 {
		chunksPerCore = 16
	}
	if out == nil {
		out = io.Discard
	}
	return &Session{ChunksPerCore: chunksPerCore, Seed: seed, out: out, cache: map[runKey]*cacheEntry{}}
}

// SetOut redirects the generated rows to w (nil selects io.Discard). It may
// be called between figure renders from any goroutine.
func (s *Session) SetOut(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	s.mu.Lock()
	s.out = w
	s.mu.Unlock()
}

func (s *Session) printf(format string, args ...any) {
	s.mu.Lock()
	w := s.out
	s.mu.Unlock()
	fmt.Fprintf(w, format, args...)
}

// TotalWork is the whole-problem chunk count shared by all machine sizes.
func (s *Session) TotalWork() int { return 64 * s.ChunksPerCore }

// UseJournal attaches an open checkpoint journal: completed points are
// recorded to it and verified-complete entries are restored instead of
// re-run. A journal may be shared by several Sessions (entries are keyed by
// point and config hash). Attach before the first Result/Sweep call.
func (s *Session) UseJournal(j *Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// AttachJournal opens (or creates) the JSONL checkpoint journal at path and
// attaches it, returning the number of entries loaded.
func (s *Session) AttachJournal(path string) (int, error) {
	j, err := OpenJournal(path)
	if err != nil {
		return 0, err
	}
	s.UseJournal(j)
	return j.Len(), nil
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
	return s.result(context.Background(), Point{app, protocol, cores})
}

func (s *Session) result(ctx context.Context, p Point) (*Result, error) {
	k := runKey{p.App, p.Protocol, p.Cores}
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[runKey]*cacheEntry{}
	}
	e, ok := s.cache[k]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		s.cache[k] = e
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
	e.res, e.err = s.run(ctx, k)
	if e.err != nil && errors.Is(e.err, ErrAborted) {
		// An abort is a withdrawn budget, not a result: drop the cache slot
		// so a later call — e.g. a resumed sweep on this session — re-runs
		// the point instead of replaying the abort.
		s.mu.Lock()
		delete(s.cache, k)
		s.mu.Unlock()
	}
	close(e.done)
	return e.res, e.err
}

// SweepPointConfig materializes the Config a Session-style sweep gives point
// p: the Table 2 defaults for the point's machine, the shared seed, and the
// strong-scaling work division (chunksPerCore is the per-core chunk count at
// 64 processors; smaller machines get proportionally more chunks over the
// same total work). The farm workers build remote points through this same
// function, so a point computed by a worker process hashes — and therefore
// journals, dedups, and fingerprints — identically to the same point run
// in-process.
func SweepPointConfig(p Point, chunksPerCore int, seed int64) Config {
	cfg := DefaultConfig(p.Cores, p.Protocol)
	cfg.Seed = seed
	cfg.ChunksPerCore = 64 * chunksPerCore / p.Cores
	if cfg.ChunksPerCore < 1 {
		cfg.ChunksPerCore = 1
	}
	return cfg
}

// ResolvePointProfile resolves a sweep point's App label: an application
// model by name, or a registered workload source sweeping under its own name
// (in which case cfg.Workload is set to the source, matching how the point
// would hash when run through a Session).
func ResolvePointProfile(app string, cfg *Config) (Profile, error) {
	if prof, ok := workload.ByName(app); ok {
		return prof, nil
	}
	if prof, ok := workload.SourceProfile(app); ok {
		if cfg.Workload == "" {
			cfg.Workload = app
		}
		return prof, nil
	}
	return Profile{}, fmt.Errorf("unknown application or workload %q", app)
}

// pointConfig materializes one point's Config: Table 2 defaults, the
// session's strong-scaling work division and seed, then the Configure hook.
func (s *Session) pointConfig(k runKey) Config {
	cfg := SweepPointConfig(Point{k.app, k.protocol, k.cores}, s.ChunksPerCore, s.Seed)
	if s.Configure != nil {
		s.Configure(&cfg)
	}
	return cfg
}

func (s *Session) run(ctx context.Context, k runKey) (res *Result, err error) {
	p := Point{k.app, k.protocol, k.cores}
	cfg := s.pointConfig(k)
	prof, rerr := ResolvePointProfile(k.app, &cfg)
	if rerr != nil {
		return nil, rerr
	}
	hash := ConfigHash(cfg)
	if j := s.Journal(); j != nil {
		if r, attempts, ok := j.Lookup(p, hash); ok {
			r.Attempts = attempts
			s.nRestored.Add(1)
			if s.Metrics != nil {
				metrics.ObserveRun(s.Metrics, r.Coll, r.Traffic, r.RingResidency)
			}
			return r, nil
		}
	}
	start := time.Now()
	// Panic isolation: a panicking point resolves to a *CrashError (with a
	// crash bundle when CrashDir is set) instead of unwinding the worker.
	defer func() {
		if rec := recover(); rec != nil {
			cr := NewCrashReport(p, cfg, rec)
			ce := &CrashError{Point: p, Report: cr}
			if s.CrashDir != "" {
				ce.BundlePath, ce.WriteErr = WriteCrashBundle(s.CrashDir, cr)
			}
			res, err = nil, ce
		}
	}()
	if s.testPointHook != nil {
		s.testPointHook(p)
	}
	if s.Retry != nil {
		res, err = RunWithRetry(ctx, prof, cfg, *s.Retry)
	} else {
		res, err = RunContext(ctx, prof, cfg)
	}
	if err != nil {
		return nil, err
	}
	if j := s.Journal(); j != nil {
		if jerr := j.Record(p, hash, res, time.Since(start)); jerr != nil {
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

// Sweep populates the cache with every SweepPoints simulation, executing the
// points as jobs on a bounded worker pool. Workers claim points in whatever
// order scheduling allows; results land keyed by point, so the outcome is
// identical to running the same points serially. parallelism ≤ 0 selects
// GOMAXPROCS. The returned error, if any, is the error of the earliest
// failing point in SweepPoints order, independent of worker interleaving.
func (s *Session) Sweep(parallelism int) error {
	return s.SweepList(s.SweepPoints(), parallelism)
}

// SweepList is Sweep over an arbitrary point list.
func (s *Session) SweepList(points []Point, parallelism int) error {
	return s.SweepContext(context.Background(), points, parallelism).Err()
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

// Err reduces the outcome to the historical Sweep contract: the error of the
// earliest failing point in input order, ErrAborted for a clean-but-aborted
// sweep, nil otherwise.
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

// SweepContext runs the points on a bounded worker pool with cancellation:
// when ctx is canceled, workers stop claiming points, in-flight simulations
// abort at their next cancellation poll, and the outcome reports Aborted. A
// panicking point is isolated into a *CrashError (and a crash bundle when
// CrashDir is set) while the remaining points keep running; every completed
// point is recorded in the attached journal, so an interrupted sweep resumes
// where it left off.
func (s *Session) SweepContext(ctx context.Context, points []Point, parallelism int) *SweepOutcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(points) {
		parallelism = len(points)
	}
	restored0 := s.nRestored.Load()
	type slot struct {
		ran bool
		err error
	}
	slots := make([]slot, len(points))
	work := make(chan int, len(points))
	for i := range points {
		work <- i
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
			for i := range work {
				if ctx.Err() != nil {
					return // unclaimed points stay !ran
				}
				r, err := s.result(ctx, points[i])
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
		}()
	}
	wg.Wait()
	close(stopHB)
	<-hbDone
	if p := snapshot(true); s.OnProgress != nil {
		s.OnProgress(p)
	}
	out := &SweepOutcome{Points: len(points), Aborted: ctx.Err() != nil}
	seen := map[Point]bool{}
	for i, sl := range slots {
		switch {
		case !sl.ran:
			// not claimed: only happens on abort
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

// Resume attaches the checkpoint journal at path and sweeps every
// SweepPoints point: verified-complete points are restored from the journal
// and only the remainder is simulated, so an interrupted sweep continues
// where it left off and still produces byte-identical figure output.
func (s *Session) Resume(ctx context.Context, path string, parallelism int) (*SweepOutcome, error) {
	if _, err := s.AttachJournal(path); err != nil {
		return nil, err
	}
	return s.SweepContext(ctx, s.SweepPoints(), parallelism), nil
}

// Inject stores res as the completed result for p, as if the session had run
// the point itself: later Result calls and figure renders are served from
// the cache. sbfig -server injects results computed by remote farm workers
// so figures render locally from remote runs. A point that already has a
// cache slot keeps it (injection never overwrites a run in flight or a
// completed result).
func (s *Session) Inject(p Point, res *Result) {
	k := runKey{p.App, p.Protocol, p.Cores}
	e := &cacheEntry{done: make(chan struct{}), res: res}
	close(e.done)
	s.mu.Lock()
	if s.cache == nil {
		s.cache = map[runKey]*cacheEntry{}
	}
	if _, ok := s.cache[k]; !ok {
		s.cache[k] = e
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

// Figure7 regenerates the SPLASH-2 execution-time panels for one protocol
// (call once per protocol for the paper's four panels).
func (s *Session) Figure7(protocol string) error {
	return s.executionTime("Figure 7 (SPLASH-2)", names(Splash2()), protocol)
}

// Figure8 regenerates the PARSEC execution-time panels for one protocol.
func (s *Session) Figure8(protocol string) error {
	return s.executionTime("Figure 8 (PARSEC)", names(Parsec()), protocol)
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

// Figure9 regenerates the SPLASH-2 directories-per-commit averages.
func (s *Session) Figure9() error {
	return s.dirsPerCommit("Figure 9 (SPLASH-2)", names(Splash2()))
}

// Figure10 regenerates the PARSEC directories-per-commit averages.
func (s *Session) Figure10() error {
	return s.dirsPerCommit("Figure 10 (PARSEC)", names(Parsec()))
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

// Figure11 regenerates the SPLASH-2 directory-count distribution.
func (s *Session) Figure11() error {
	return s.dirsDistribution("Figure 11 (SPLASH-2)", names(Splash2()))
}

// Figure12 regenerates the PARSEC directory-count distribution.
func (s *Session) Figure12() error {
	return s.dirsDistribution("Figure 12 (PARSEC)", names(Parsec()))
}

// Figure13 regenerates the chunk-commit latency characterization: the
// all-application mean per protocol at 32 and 64 processors (the paper's
// headline numbers are 74/402/107/98 at 32p and 91/411/153/2954 at 64p) and
// a latency histogram per protocol at 64 processors.
func (s *Session) Figure13() error {
	apps := names(Apps())
	s.printf("Figure 13 — chunk commit latency\n")
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

// Figure14 regenerates the SPLASH-2 bottleneck ratios.
func (s *Session) Figure14() error {
	return s.bottleneckRatio("Figure 14 (SPLASH-2)", names(Splash2()))
}

// Figure15 regenerates the PARSEC bottleneck ratios.
func (s *Session) Figure15() error {
	return s.bottleneckRatio("Figure 15 (PARSEC)", names(Parsec()))
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

// Figure16 regenerates the SPLASH-2 chunk queue lengths.
func (s *Session) Figure16() error {
	return s.chunkQueue("Figure 16 (SPLASH-2)", names(Splash2()))
}

// Figure17 regenerates the PARSEC chunk queue lengths.
func (s *Session) Figure17() error {
	return s.chunkQueue("Figure 17 (PARSEC)", names(Parsec()))
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

// Figure18 regenerates the SPLASH-2 traffic characterization.
func (s *Session) Figure18() error {
	return s.traffic("Figure 18 (SPLASH-2)", names(Splash2()))
}

// Figure19 regenerates the PARSEC traffic characterization.
func (s *Session) Figure19() error {
	return s.traffic("Figure 19 (PARSEC)", names(Parsec()))
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

// FigureIDs lists every regenerable figure in order.
func FigureIDs() []int {
	ids := make([]int, 0, 13)
	for i := 7; i <= 19; i++ {
		ids = append(ids, i)
	}
	return ids
}

// Figure dispatches by figure number; Figures 7 and 8 render all four
// protocol panels.
func (s *Session) Figure(id int) error {
	switch id {
	case 7, 8:
		f := s.Figure7
		if id == 8 {
			f = s.Figure8
		}
		for _, p := range Protocols {
			if err := f(p); err != nil {
				return err
			}
		}
		return nil
	case 9:
		return s.Figure9()
	case 10:
		return s.Figure10()
	case 11:
		return s.Figure11()
	case 12:
		return s.Figure12()
	case 13:
		return s.Figure13()
	case 14:
		return s.Figure14()
	case 15:
		return s.Figure15()
	case 16:
		return s.Figure16()
	case 17:
		return s.Figure17()
	case 18:
		return s.Figure18()
	case 19:
		return s.Figure19()
	default:
		return fmt.Errorf("no figure %d (have 7–19)", id)
	}
}

// MeanLatencyTable returns the Figure 13 headline means per protocol at the
// given core count, keyed by protocol (used by tests and EXPERIMENTS.md).
func (s *Session) MeanLatencyTable(cores int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, protocol := range Protocols {
		var sum, n float64
		for _, app := range names(Apps()) {
			r, err := s.Result(app, protocol, cores)
			if err != nil {
				return nil, err
			}
			sum += r.MeanCommitLatency() * float64(len(r.Coll.CommitLat))
			n += float64(len(r.Coll.CommitLat))
		}
		out[protocol] = sum / n
	}
	return out, nil
}

// sortedApps is a test helper: deterministic app iteration order.
func sortedApps() []string {
	out := names(Apps())
	sort.Strings(out)
	return out
}
