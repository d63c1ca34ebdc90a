package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/metrics"
)

// testSpec is a small but real sweep: two apps × one protocol × two core
// counts, strong scaling, tiny work budget.
func testSpec() *SweepSpec {
	return &SweepSpec{
		ChunksPerCore: 1,
		Seed:          42,
		Points: []Point{
			{App: "Radix", Protocol: "ScalableBulk", Cores: 8},
			{App: "Radix", Protocol: "ScalableBulk", Cores: 16},
			{App: "FFT", Protocol: "TCC", Cores: 8},
		},
	}
}

// inProcessFingerprints runs the spec through Session.SweepContext — the
// reference the farm must reproduce byte-identically.
func inProcessFingerprints(t *testing.T, spec *SweepSpec) map[Point]string {
	t.Helper()
	s := scalablebulk.NewSession(spec.ChunksPerCore, spec.Seed, nil)
	s.SweepSpec = *spec
	out := s.SweepContext(context.Background(), spec.Points, 2)
	if len(out.Failures) > 0 || out.Aborted {
		t.Fatalf("reference sweep failed: %+v", out)
	}
	fps := map[Point]string{}
	for _, p := range spec.Points {
		res, err := s.Result(p.App, p.Protocol, p.Cores)
		if err != nil {
			t.Fatal(err)
		}
		fps[p] = scalablebulk.FingerprintSHA(res)
	}
	return fps
}

// startServer binds a farm server (plus journal at journalPath when set) on
// addr ("" picks a port) and returns its base URL and a shutdown func that
// also closes the journal.
func startServer(t *testing.T, opts Options, journalPath, addr string) (string, *Server, func()) {
	t.Helper()
	if journalPath != "" {
		j, err := scalablebulk.OpenJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		opts.Journal = j
	}
	srv := NewServer(opts)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			if opts.Journal != nil {
				opts.Journal.Close()
			}
		})
	}
	return "http://" + ln.Addr().String(), srv, stop
}

func quickOpts() Options {
	return Options{
		LeaseTTL:    500 * time.Millisecond,
		PoisonAfter: 3,
		MaxAttempts: 5,
		Requeue:     RequeuePolicy{Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Jitter: 0.5},
		Seed:        1,
	}
}

func startWorker(ctx context.Context, c *Client, id string, onPoint func(string, Point)) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	w := &Worker{Client: c, ID: id, OnPoint: onPoint}
	go func() {
		defer wg.Done()
		w.Run(ctx)
	}()
	return &wg
}

func fastClient(base string) *Client {
	return &Client{Base: base, RetryInterval: 20 * time.Millisecond, MaxRetryWait: 200 * time.Millisecond}
}

// TestFarmSweepMatchesInProcess: the headline determinism contract — a farm
// sweep over live workers yields byte-identical ResultFingerprints to the
// same spec swept in-process. Each spec holds a warm unit of three
// protocols, so the worker restores machines from its warm image; the
// warm key leaves out faults and the checker, so the chaos spec checks
// that restored machines match under both. The defaulted spec leaves
// ChunksPerCore at 0, so both sides must pick the same default budget.
func TestFarmSweepMatchesInProcess(t *testing.T) {
	plain := testSpec()
	plain.Points = append(plain.Points,
		Point{App: "FFT", Protocol: "ScalableBulk", Cores: 8},
		Point{App: "FFT", Protocol: "BulkSC", Cores: 8})
	chaos := *plain
	chaos.Faults, chaos.Check = "chaos", true
	defaulted := *plain
	defaulted.ChunksPerCore = 0
	for name, spec := range map[string]*SweepSpec{"plain": plain, "chaos": &chaos, "defaulted": &defaulted} {
		t.Run(name, func(t *testing.T) {
			want := inProcessFingerprints(t, spec)

			base, _, stop := startServer(t, quickOpts(), filepath.Join(t.TempDir(), "farm.jsonl"), "")
			defer stop()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			var log warmLog
			log.startWorker(wctx, fastClient(base), "w1")
			defer log.wg.Wait()

			got := map[Point]string{}
			out, err := fastClient(base).RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
				got[p] = scalablebulk.FingerprintSHA(res)
			})
			wcancel()
			log.wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if out.Completed != len(spec.Points) || len(out.Failures) > 0 || out.Aborted {
				t.Fatalf("outcome: %+v", out)
			}
			for p, fp := range want {
				if got[p] != fp {
					t.Errorf("%s/%s/%d: farm fingerprint %s != in-process %s",
						p.App, p.Protocol, p.Cores, got[p], fp)
				}
			}
			if built, restored := log.count(); built+restored != len(spec.Points) || restored < 1 {
				t.Errorf("worker built %d and restored %d machines, want %d in all and a restore",
					built, restored, len(spec.Points))
			}
		})
	}
}

// TestFarmWarmsUpOncePerUnit: two workers sweep the 18 applications × 5
// protocols × {1, 2, 4} cores, 54 warm units of five points. Lease affinity
// keeps each unit on one worker, so the sweep warms up about once per unit,
// not once per point.
func TestFarmWarmsUpOncePerUnit(t *testing.T) {
	spec := &SweepSpec{ChunksPerCore: 1, Scaling: ScalingFixed, Seed: 1}
	for _, app := range scalablebulk.Apps() {
		for _, proto := range scalablebulk.RegisteredProtocols() {
			for _, cores := range []int{1, 2, 4} {
				spec.Points = append(spec.Points, Point{App: app.Name, Protocol: proto.Name, Cores: cores})
			}
		}
	}
	base, _, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var log warmLog
	log.startWorker(wctx, fastClient(base), "w1")
	log.startWorker(wctx, fastClient(base), "w2")
	defer log.wg.Wait()
	out, err := fastClient(base).RunSweep(ctx, spec, nil)
	wcancel()
	log.wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 {
		t.Fatalf("outcome: %+v", out)
	}
	built, restored := log.count()
	t.Logf("%d points: %d warm-ups, %d restores", len(spec.Points), built, restored)
	if built+restored != len(spec.Points) || built > 60 {
		t.Errorf("built %d and restored %d machines for %d points in 54 warm units, want at most 60 warm-ups",
			built, restored, len(spec.Points))
	}
}

// TestWorkerWarmImageShared: a worker's slots share its one WarmRunner
// and so its one warm image. Runs of one warm key restore it concurrently;
// runs of two keys, interleaved, replace and restore it concurrently;
// every run matches a standalone one.
func TestWorkerWarmImageShared(t *testing.T) {
	spec := &SweepSpec{ChunksPerCore: 1, Seed: 3}
	radix := []Point{{App: "Radix", Protocol: "ScalableBulk", Cores: 4}, {App: "Radix", Protocol: "TCC", Cores: 4}}
	fft := []Point{{App: "FFT", Protocol: "TCC", Cores: 4}, {App: "FFT", Protocol: "SEQ", Cores: 4}}
	want := map[Point]string{}
	for _, p := range append(radix, fft...) {
		prof, cfg, _ := spec.Resolve(p)
		res, err := scalablebulk.RunContext(context.Background(), prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = scalablebulk.FingerprintSHA(res)
	}
	var wr scalablebulk.WarmRunner
	// run runs each point on its own goroutine, as a worker's slots do, and
	// reports how many of the machines were restored.
	run := func(points ...Point) int {
		var wg sync.WaitGroup
		var restored atomic.Int64
		for _, p := range points {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prof, cfg, _ := spec.Resolve(p)
				res, rest, err := wr.Run(context.Background(), p, prof, cfg, true, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if rest {
					restored.Add(1)
				}
				if got := scalablebulk.FingerprintSHA(res); got != want[p] {
					t.Errorf("%s/%s/%d (restored %v): fingerprint %s, standalone %s",
						p.App, p.Protocol, p.Cores, rest, got, want[p])
				}
			}()
		}
		wg.Wait()
		return int(restored.Load())
	}
	if n := run(radix[0]); n != 0 {
		t.Fatalf("a new worker restored %d machines", n)
	}
	if n := run(radix[1], radix[0], radix[1], radix[0]); n != 4 {
		t.Fatalf("restored %d of 4 machines of the image's warm key", n)
	}
	run(radix[0], fft[0], radix[1], fft[1], radix[0], fft[0], radix[1], fft[1])
}

// warmLog collects the logs of workers and counts their completed points
// by how each machine was built: warmed up, or restored from a warm image.
type warmLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
	wg  sync.WaitGroup
}

// startWorker runs a worker that logs to l until ctx ends; l.wg waits for it.
func (l *warmLog) startWorker(ctx context.Context, c *Client, id string) {
	w := &Worker{Client: c, ID: id, Log: slog.New(slog.NewTextHandler(lockedWriter{&l.mu, &l.buf}, nil))}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		w.Run(ctx)
	}()
}

func (l *warmLog) count() (built, restored int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.buf.String()
	return strings.Count(s, "warm=built"), strings.Count(s, "warm=restored")
}

// TestWorkloadSourcePointMatchesSession: a point labelled with a workload
// source (zipf) rather than an application model runs on the farm, with the
// in-process fingerprint and under the same journal key as the Session's.
// The label sets cfg.Workload only when the point is resolved, so the
// server must hash the resolved config, as workers and the Session do.
func TestWorkloadSourcePointMatchesSession(t *testing.T) {
	spec := &SweepSpec{
		ChunksPerCore: 2,
		Seed:          7,
		Points: []Point{
			{App: "zipf", Protocol: "ScalableBulk", Cores: 8},
			{App: "Radix", Protocol: "TCC", Cores: 8},
		},
	}
	dir := t.TempDir()
	sj, err := scalablebulk.OpenJournal(filepath.Join(dir, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sess := scalablebulk.NewSession(spec.ChunksPerCore, spec.Seed, nil)
	sess.UseJournal(sj)
	if out := sess.SweepContext(context.Background(), spec.Points, 1); len(out.Failures) > 0 || out.Aborted {
		t.Fatalf("reference sweep failed: %+v", out)
	}
	want := map[Point]string{}
	for _, p := range spec.Points {
		res, err := sess.Result(p.App, p.Protocol, p.Cores)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = scalablebulk.FingerprintSHA(res)
	}
	wantKeys := journalKeys(sj)
	sj.Close()

	farmJournal := filepath.Join(dir, "farm.jsonl")
	base, _, stop := startServer(t, quickOpts(), farmJournal, "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, fastClient(base), "w1", nil)
	defer wg.Wait()
	got := map[Point]string{}
	out, err := fastClient(base).RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
		got[p] = scalablebulk.FingerprintSHA(res)
	})
	// Let the worker finish before the server stops below: a result whose
	// response the stop cuts off would be retried until delivery times out.
	wcancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 || out.Aborted {
		t.Fatalf("outcome: %+v", out)
	}
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: farm fingerprint %s != in-process %s",
				p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}
	stop()
	j, err := scalablebulk.OpenJournal(farmJournal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	gotKeys := journalKeys(j)
	for p, k := range wantKeys {
		if gotKeys[p] != k {
			t.Errorf("%s/%s/%d: farm journal key %q != session %q",
				p.App, p.Protocol, p.Cores, gotKeys[p], k)
		}
	}
}

// journalKeys maps each journaled point to its config hash.
func journalKeys(j *scalablebulk.Journal) map[Point]string {
	keys := map[Point]string{}
	for _, jp := range j.Points() {
		keys[jp.Point] = jp.ConfigHash
	}
	return keys
}

// TestWorkerKilledMidLease: a worker that takes a lease and dies (never
// heartbeats) must not lose the point — the lease expires, the point
// re-queues, a healthy worker completes it, and it completes exactly once.
func TestWorkerKilledMidLease(t *testing.T) {
	spec := testSpec()
	reg := metrics.NewRegistry()
	opts := quickOpts()
	opts.LeaseTTL = 200 * time.Millisecond
	opts.Metrics = reg
	base, _, stop := startServer(t, opts, filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// "Kill" a worker mid-lease: take a lease directly and never heartbeat
	// or deliver — exactly what the server sees when a worker is SIGKILLed.
	c := fastClient(base)
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	job, err := c.Lease(ctx, "w-dead")
	if err != nil || job == nil {
		t.Fatalf("dead worker's lease: %+v, %v", job, err)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, fastClient(base), "w-live", nil)
	defer wg.Wait()

	out, err := fastClient(base).RunSweep(ctx, spec, nil)
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 {
		t.Fatalf("outcome after worker death: %+v", out)
	}
	if n := reg.Counter("farm_leases_expired").Value(); n < 1 {
		t.Errorf("lease expiries = %d, want ≥ 1", n)
	}
	// Exactly once: one accepted result per point, no divergent duplicates.
	if n := reg.Counter("farm_results_ok").Value(); n != uint64(len(spec.Points)) {
		t.Errorf("accepted results = %d, want %d", n, len(spec.Points))
	}
	if n := reg.Counter("farm_results_divergent").Value(); n != 0 {
		t.Errorf("divergent results = %d, want 0", n)
	}
}

// deliver runs the job's point for real and posts the result, standing in
// for a healthy worker.
func deliver(ctx context.Context, t *testing.T, c *Client, job *Job) {
	t.Helper()
	prof, cfg, err := job.Spec.Resolve(job.Point)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalablebulk.RunContext(ctx, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Result(ctx, job, "w-healthy", res, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedPointQuarantined: a point that crashes PoisonAfter distinct
// workers is quarantined with a crash bundle instead of retrying forever,
// and the rest of the sweep completes.
func TestPoisonedPointQuarantined(t *testing.T) {
	spec := testSpec()
	poisonPoint := spec.Points[1]
	crashDir := t.TempDir()
	opts := quickOpts()
	opts.PoisonAfter = 2
	opts.MaxAttempts = 2
	opts.CrashDir = crashDir
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	c := fastClient(base)
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Drive leases by hand: healthy deliveries for every point except the
	// poison one, which kills two distinct workers via crash reports. Every
	// lease uses a fresh worker identity — the server attributes a death to
	// the worker holding the lease.
	deaths := 0
	for i := 0; deaths < 2; i++ {
		worker := fmt.Sprintf("w-%d", i)
		job, err := c.Lease(ctx, worker)
		if err != nil {
			t.Fatal(err)
		}
		if job == nil { // the hold ended before the poison point's backoff did
			continue
		}
		if job.Point != poisonPoint {
			deliver(ctx, t, c, job)
			continue
		}
		deaths++
		_, cfg, err := job.Spec.Resolve(job.Point)
		if err != nil {
			t.Fatal(err)
		}
		crash := scalablebulk.NewCrashReport(job.Point, cfg, fmt.Sprintf("induced crash %d", deaths))
		if err := c.Fail(ctx, job, worker, "induced crash", crash); err != nil {
			t.Fatal(err)
		}
	}
	// Drain whatever the crash loop left pending. Once the table is empty a
	// lease comes back nil — and the quarantined point must never be among
	// the grants.
	for {
		job, err := c.Lease(ctx, "w-healthy")
		if err != nil {
			t.Fatal(err)
		}
		if job == nil {
			break
		}
		if job.Point == poisonPoint {
			t.Fatal("poisoned point was re-leased after quarantine")
		}
		deliver(ctx, t, c, job)
	}
	out, err := c.RunSweep(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly the poisoned point", out.Failures)
	}
	f := out.Failures[0]
	if f.Point != poisonPoint {
		t.Errorf("failed point = %+v, want %+v", f.Point, poisonPoint)
	}
	if !strings.Contains(f.Err.Error(), "poisoned") {
		t.Errorf("failure error %q does not mention poisoning", f.Err)
	}
	if out.Completed != len(spec.Points)-1 {
		t.Errorf("completed = %d, want %d", out.Completed, len(spec.Points)-1)
	}
	// Each crash death wrote a bundle for postmortem.
	ents, err := os.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("crash bundles = %d, want 2", len(ents))
	}
}

// TestServerRestartResumesFromJournal: kill the server mid-sweep, restart
// it on the same journal and address, and the sweep completes with
// fingerprints byte-identical to an uninterrupted in-process run. This is
// the PR's acceptance scenario.
func TestServerRestartResumesFromJournal(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)
	journal := filepath.Join(t.TempDir(), "farm.jsonl")

	base, _, stop1 := startServer(t, quickOpts(), journal, "")
	addr := strings.TrimPrefix(base, "http://")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Let exactly one point complete, then kill the server.
	firstDone := make(chan struct{}, 1)
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var completedOnce sync.Once
	wg := startWorker(wctx, fastClient(base), "w1", nil)

	// Observe the first journaled entry by polling the file.
	go func() {
		for ctx.Err() == nil {
			if data, err := os.ReadFile(journal); err == nil && len(data) > 0 {
				completedOnce.Do(func() { close(firstDone) })
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	client := fastClient(base)
	outc := make(chan *scalablebulk.SweepOutcome, 1)
	got := map[Point]string{}
	var gotMu sync.Mutex
	go func() {
		out, err := client.RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
			gotMu.Lock()
			got[p] = scalablebulk.FingerprintSHA(res)
			gotMu.Unlock()
		})
		if err != nil {
			t.Error(err)
		}
		outc <- out
	}()

	select {
	case <-firstDone:
	case <-ctx.Done():
		t.Fatal("no point completed before the kill window")
	}
	// Kill the server (journal closes, flock releases) and restart it on
	// the same address and journal. The thin client and the worker ride
	// through on transport retries; the worker's in-flight result may land
	// as an orphan and must still be accepted.
	stop1()
	base2, _, stop2 := startServer(t, quickOpts(), journal, addr)
	defer stop2()
	if base2 != base {
		t.Fatalf("restarted server bound %s, want %s", base2, base)
	}

	var out *scalablebulk.SweepOutcome
	select {
	case out = <-outc:
	case <-ctx.Done():
		t.Fatal("sweep did not finish after server restart")
	}
	wcancel()
	wg.Wait()
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 || out.Aborted {
		t.Fatalf("outcome after restart: %+v", out)
	}
	gotMu.Lock()
	defer gotMu.Unlock()
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: post-restart fingerprint %s != uninterrupted %s",
				p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}
	// The journal must hold every point — the restart reused it. The second
	// server still holds the flock, so stop it before inspecting.
	stop2()
	j, err := scalablebulk.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != len(spec.Points) {
		t.Errorf("journal holds %d points, want %d", j.Len(), len(spec.Points))
	}
}

// TestRPCFaultInjectionConverges: under a hostile seeded RPC fault profile
// (drops, duplicates, delays) the sweep still completes with fingerprints
// identical to the in-process reference — the wire protocol is idempotent
// and retried end to end.
func TestRPCFaultInjectionConverges(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)
	reg := metrics.NewRegistry()
	opts := quickOpts()
	opts.Metrics = reg
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	prof, err := RPCFaultByName("lossy", 7)
	if err != nil {
		t.Fatal(err)
	}
	faulty := func() *Client {
		return &Client{
			Base:          base,
			HTTP:          &http.Client{Transport: NewFaultTransport(nil, *prof)},
			RetryInterval: 10 * time.Millisecond,
			MaxRetryWait:  100 * time.Millisecond,
		}
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, faulty(), "w1", nil)
	defer wg.Wait()

	got := map[Point]string{}
	out, err := faulty().RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
		got[p] = scalablebulk.FingerprintSHA(res)
	})
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 {
		t.Fatalf("outcome under RPC faults: %+v", out)
	}
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: fingerprint %s != reference %s",
				p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}
	if n := reg.Counter("farm_results_divergent").Value(); n != 0 {
		t.Errorf("divergent results under faults = %d, want 0", n)
	}
}

// TestDrainRejectsLeases: a draining server grants nothing and tells
// workers to stop; the drain completes once no lease is live.
func TestDrainRejectsLeases(t *testing.T) {
	spec := testSpec()
	base, srv, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := fastClient(base)
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	drained := srv.Drain()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain with no live leases did not complete")
	}
	if _, err := c.Lease(ctx, "w1"); !errors.Is(err, ErrDraining) {
		t.Fatalf("lease on draining server: %v, want ErrDraining", err)
	}
}

// TestOrphanResultAccepted: a result delivered for a sweep the server no
// longer knows (restart without resubmission) is verified and journaled, so
// the eventual resubmission restores it instead of re-running.
func TestOrphanResultAccepted(t *testing.T) {
	spec := testSpec()
	journal := filepath.Join(t.TempDir(), "farm.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Run one point's simulation directly to stand in for a worker that
	// finished while its server was down.
	p := spec.Points[0]
	prof, cfg, err := spec.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalablebulk.RunContext(ctx, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base, _, stop := startServer(t, quickOpts(), journal, "")
	defer stop()
	c := fastClient(base)
	// Deliver with a fabricated sweep/lease the fresh server has never seen.
	job := &Job{SweepID: spec.ID(), LeaseID: "l-ghost", PointID: 0, Point: p,
		Spec: spec, ConfigHash: scalablebulk.ConfigHash(cfg)}
	if err := c.Result(ctx, job, "w-ghost", res, time.Second); err != nil {
		t.Fatalf("orphan result rejected: %v", err)
	}
	// Resubmission must restore the orphaned point from the journal.
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Restored != 1 {
		t.Fatalf("restored = %d, want 1 (the orphan)", sub.Restored)
	}
}

// TestSubmitRejectsUnknownField: a submit naming a field SweepSpec does not
// have (here "workload", a selector the App label replaced) is refused with
// 400, not run as a different sweep than the client asked for. The same
// body without the field is accepted.
func TestSubmitRejectsUnknownField(t *testing.T) {
	base, _, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	const points = `"points":[{"App":"Radix","Protocol":"TCC","Cores":8}]}`
	for body, want := range map[string]int{
		`{"seed":1,"workload":"zipf",` + points: http.StatusBadRequest,
		`{"seed":1,` + points:                   http.StatusOK,
	} {
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestResultMustNameItsPoint: a ConfigHash does not name the application,
// so Radix and FFT at the same protocol and core count share one. A result
// posted under the wrong label or slot must be refused with 400, not filed
// under another point: for a live sweep that would resolve Radix's slot
// with FFT's result, and for an orphan it would journal FFT under Radix.
func TestResultMustNameItsPoint(t *testing.T) {
	radix := Point{App: "Radix", Protocol: "ScalableBulk", Cores: 8}
	fft := Point{App: "FFT", Protocol: "ScalableBulk", Cores: 8}
	spec := &SweepSpec{ChunksPerCore: 1, Seed: 42, Points: []Point{radix, fft}}
	hash := scalablebulk.ConfigHash(spec.Config(radix))
	if h := scalablebulk.ConfigHash(spec.Config(fft)); h != hash {
		t.Fatalf("premise: Radix and FFT hash %s and %s, want one hash", hash, h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	prof, cfg, err := spec.Resolve(fft)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalablebulk.RunContext(ctx, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base, _, stop := startServer(t, quickOpts(), filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	c := fastClient(base)
	post := func(name string, job *Job) {
		t.Helper()
		job.SweepID, job.LeaseID, job.ConfigHash = spec.ID(), "l-ghost", hash
		err := c.Result(ctx, job, "w-ghost", res, time.Second)
		var he *httpError
		if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
			t.Errorf("%s: FFT's result posted as %s (point %d): err %v, want 400",
				name, pointLabel(job.Point), job.PointID, err)
		}
	}
	post("orphan", &Job{PointID: 0, Point: radix})
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Restored != 0 {
		t.Errorf("restored = %d after a refused orphan, want 0", sub.Restored)
	}
	post("label names another slot", &Job{PointID: 0, Point: fft})
	post("result names another point", &Job{PointID: 0, Point: radix})
	p, err := c.Progress(ctx, spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p.Done != 0 {
		t.Errorf("done = %d after refused results, want 0", p.Done)
	}
}

// TestSubmitIsIdempotent: identical specs collapse to one sweep; a
// divergent result for an already-done point is refused with 409.
func TestSubmitIsIdempotent(t *testing.T) {
	spec := testSpec()
	base, _, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := fastClient(base)
	s1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1.SweepID != s2.SweepID || !s2.Existing {
		t.Fatalf("resubmit: %+v then %+v, want same id with Existing", s1, s2)
	}
}
