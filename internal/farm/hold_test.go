package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/metrics"
)

// leaseOutcome is one Client.Lease call's answer and when it arrived.
type leaseOutcome struct {
	job *Job
	err error
	at  time.Time
}

// heldLease starts a lease request for worker and returns once the server
// holds it: the server records the worker before holding, and FarmStatus
// can only see that record after the holder has released the lock.
func heldLease(ctx context.Context, t *testing.T, c *Client, worker string) <-chan leaseOutcome {
	t.Helper()
	ch := make(chan leaseOutcome, 1)
	go func() {
		job, err := c.Lease(ctx, worker)
		ch <- leaseOutcome{job, err, time.Now()}
	}()
	for {
		fs, err := c.FarmStatus(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range fs.Workers {
			if w.ID == worker {
				return ch
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeldLeaseWakes: with a 10 s TTL an empty lease request waits up to
// 1 s on the server, but a submitted sweep, a failed run or a drain answers
// it at once. A failed run's point re-queues behind a few milliseconds of
// backoff, which the woken request waits out.
func TestHeldLeaseWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup runs before the hold; wake gets the jobs it leased.
		setup func(ctx context.Context, t *testing.T, c *Client) []*Job
		wake  func(ctx context.Context, c *Client, srv *Server, jobs []*Job) error
		want  func(got leaseOutcome) bool
	}{
		{
			name:  "submit",
			setup: func(context.Context, *testing.T, *Client) []*Job { return nil },
			wake: func(ctx context.Context, c *Client, _ *Server, _ []*Job) error {
				_, err := c.Submit(ctx, testSpec())
				return err
			},
			want: func(got leaseOutcome) bool { return got.err == nil && got.job != nil },
		},
		{
			name:  "failed run",
			setup: leaseAll,
			wake: func(ctx context.Context, c *Client, _ *Server, jobs []*Job) error {
				return c.Fail(ctx, jobs[0], "w-busy", "induced failure", nil)
			},
			want: func(got leaseOutcome) bool {
				return got.err == nil && got.job != nil && got.job.Attempt == 2
			},
		},
		{
			name:  "drain",
			setup: func(context.Context, *testing.T, *Client) []*Job { return nil },
			wake: func(_ context.Context, _ *Client, srv *Server, _ []*Job) error {
				srv.Drain()
				return nil
			},
			want: func(got leaseOutcome) bool { return errors.Is(got.err, ErrDraining) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := quickOpts()
			opts.LeaseTTL = 10 * time.Second
			base, srv, stop := startServer(t, opts, "", "")
			defer stop()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			c := fastClient(base)
			jobs := tc.setup(ctx, t, c)
			held := heldLease(ctx, t, c, "w1")
			start := time.Now()
			if err := tc.wake(ctx, c, srv, jobs); err != nil {
				t.Fatal(err)
			}
			got := <-held
			if !tc.want(got) {
				t.Fatalf("held lease after %s: job %+v, err %v", tc.name, got.job, got.err)
			}
			if d := got.at.Sub(start); d > 100*time.Millisecond {
				t.Errorf("held lease answered %v after the %s, want ≤ 100ms", d, tc.name)
			}
		})
	}
}

// leaseAll submits testSpec and leases every point to worker w-busy.
func leaseAll(ctx context.Context, t *testing.T, c *Client) []*Job {
	t.Helper()
	spec := testSpec()
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for range spec.Points {
		job, err := c.Lease(ctx, "w-busy")
		if err != nil || job == nil {
			t.Fatalf("lease: %+v, %v", job, err)
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// TestEmptyHoldLastsTheHint: with nothing to grant, a lease request comes
// back empty after the hold bound (LeaseTTL/10), not before and not much
// later.
func TestEmptyHoldLastsTheHint(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup leaves the server with nothing a new lease could take.
		setup func(ctx context.Context, t *testing.T, c *Client)
	}{
		{"no sweep", func(context.Context, *testing.T, *Client) {}},
		{"every point leased", func(ctx context.Context, t *testing.T, c *Client) { leaseAll(ctx, t, c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := quickOpts()
			opts.LeaseTTL = time.Second
			hint := opts.LeaseTTL / 10
			base, _, stop := startServer(t, opts, "", "")
			defer stop()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			c := fastClient(base)
			tc.setup(ctx, t, c)
			start := time.Now()
			job, err := c.Lease(ctx, "w1")
			d := time.Since(start)
			if err != nil || job != nil {
				t.Fatalf("empty hold: job %+v, err %v; want no job", job, err)
			}
			if d < hint || d > hint+400*time.Millisecond {
				t.Errorf("empty hold took %v, want within [%v, %v]", d, hint, hint+400*time.Millisecond)
			}
		})
	}
}

// TestCanceledHoldLeavesNoHandler: a client that gives up mid-hold ends the
// server's hold with it, long before the 6 s bound.
func TestCanceledHoldLeavesNoHandler(t *testing.T) {
	opts := quickOpts()
	opts.LeaseTTL = time.Minute
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	leaseCtx, cancelLease := context.WithCancel(ctx)
	held := heldLease(leaseCtx, t, fastClient(base), "w1")
	if !holding() {
		t.Fatal("no handler is holding the lease request")
	}
	cancelLease()
	if got := <-held; got.err == nil {
		t.Fatalf("canceled lease returned job %+v, no error", got.job)
	}
	for deadline := time.Now().Add(2 * time.Second); holding(); {
		if time.Now().After(deadline) {
			t.Fatal("the lease handler still holds 2s after its client canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holding reports whether any goroutine is inside a lease hold.
func holding() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Server).awaitLease")
}

// TestSpecSentOnce: the server leaves a job's spec out exactly when the
// request lists the job's sweep among the specs the worker holds. A request
// with no list — an older worker — always gets the spec.
func TestSpecSentOnce(t *testing.T) {
	spec := testSpec()
	base, _, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := fastClient(base).Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		wantSpec   bool
	}{
		{"no list", `{"worker":"w-old"}`, true},
		{"other sweep listed", `{"worker":"w-new","have_specs":["0123456789abcdef"]}`, true},
		{"sweep listed", `{"worker":"w-new","have_specs":["` + spec.ID() + `"]}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(base+"/v1/lease", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var lr leaseResponse
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Fatal(err)
			}
			if lr.Job == nil {
				t.Fatalf("no job granted: %+v", lr)
			}
			if got := lr.Job.Spec != nil; got != tc.wantSpec {
				t.Errorf("job carries spec = %v, want %v", got, tc.wantSpec)
			}
			if lr.Job.Spec != nil && lr.Job.Spec.ID() != spec.ID() {
				t.Errorf("job spec ID %s, want %s", lr.Job.Spec.ID(), spec.ID())
			}
		})
	}
}

// leaseRecorder is a RoundTripper that keeps every granted job a worker
// receives, in order.
type leaseRecorder struct {
	mu   sync.Mutex
	jobs []*Job
}

func (r *leaseRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/lease" {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var lr leaseResponse
	if json.Unmarshal(data, &lr) == nil && lr.Job != nil {
		r.mu.Lock()
		r.jobs = append(r.jobs, lr.Job)
		r.mu.Unlock()
	}
	return resp, nil
}

// TestWorkerReceivesSpecOnce: a worker's first job of a sweep carries the
// spec and its later jobs do not, and the sweep still matches in-process.
func TestWorkerReceivesSpecOnce(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)
	base, _, stop := startServer(t, quickOpts(), "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rec := &leaseRecorder{}
	wc := fastClient(base)
	wc.HTTP = &http.Client{Transport: rec}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, wc, "w1", nil)
	defer wg.Wait()

	got := map[Point]string{}
	out, err := fastClient(base).RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
		got[p] = scalablebulk.FingerprintSHA(res)
	})
	wcancel()
	if err != nil || out.Completed != len(spec.Points) || len(out.Failures) > 0 {
		t.Fatalf("sweep: %+v, %v", out, err)
	}
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: fingerprint %s != in-process %s", p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.jobs) != len(spec.Points) {
		t.Fatalf("worker received %d jobs, want %d", len(rec.jobs), len(spec.Points))
	}
	for i, job := range rec.jobs {
		if hasSpec := job.Spec != nil; hasSpec != (i == 0) {
			t.Errorf("job %d (%s) carries spec = %v, want %v", i, pointLabel(job.Point), hasSpec, i == 0)
		}
	}
}

// TestQueuedLeaseDoesNotExpire: a one-slot worker busy with a run that
// outlasts the lease TTL holds no second lease meanwhile, so no lease
// expires and every point runs on its first attempt.
func TestQueuedLeaseDoesNotExpire(t *testing.T) {
	spec := testSpec()
	reg := metrics.NewRegistry()
	opts := quickOpts() // 500 ms TTL
	opts.Metrics = reg
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var slow sync.Once
	wg := startWorker(wctx, fastClient(base), "w1", func(_ string, p Point) {
		if p == spec.Points[0] {
			slow.Do(func() { time.Sleep(3 * opts.LeaseTTL) })
		}
	})
	defer wg.Wait()

	c := fastClient(base)
	out, err := c.RunSweep(ctx, spec, nil)
	wcancel()
	if err != nil || out.Completed != len(spec.Points) || len(out.Failures) > 0 {
		t.Fatalf("sweep: %+v, %v", out, err)
	}
	if n := reg.Counter("farm_leases_expired").Value(); n != 0 {
		t.Errorf("lease expiries = %d, want 0", n)
	}
	p, err := c.Progress(ctx, spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p.Requeues != 0 || p.Attempts.Max != 1 {
		t.Errorf("requeues = %d, max attempt = %v; want 0 and 1", p.Requeues, p.Attempts.Max)
	}
}
