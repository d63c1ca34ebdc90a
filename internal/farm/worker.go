package farm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	scalablebulk "scalablebulk"
)

// Worker is the farm's execution side. It asks for a lease only when one
// of its Parallel slots is free, runs the point while heartbeating the
// lease, delivers the result (or the failure, with a crash report when the
// run panicked), and asks again. The server holds an empty lease request
// until work arrives or the hold bound passes, so the worker asks again at
// once. The worker keeps the specs of the sweeps it leased from recently
// and lists them in each request, so the server sends a sweep's spec once,
// not with every job. Its slots run points through one WarmRunner, which
// keeps the warm image of the latest machine it warmed up: the server leases
// a worker the points of one warm unit in a row, so the unit's later points
// restore that image instead of warming up.
type Worker struct {
	Client *Client
	// ID names this worker to the server; it is the unit the poison
	// counter counts distinct deaths by.
	ID string
	// Parallel is the number of concurrent leases (≤0 selects 1).
	Parallel int
	// OnPoint, when non-nil, observes every leased point before it runs,
	// inside the run's panic isolation (WarmRunner.Run) — the failure-mode
	// tests use it to kill workers mid-lease or inject panics that become
	// real crash bundles.
	OnPoint func(workerID string, p Point)
	// Log, when non-nil, receives structured progress lines; every
	// job-scoped line carries the sweep's correlation ID.
	Log *slog.Logger

	warm scalablebulk.WarmRunner
}

// logJob emits one structured line about a leased job, stamped with the
// identifiers (sweep, lease, point, corr) that make the line greppable
// alongside the server's event log and crash bundles.
func (w *Worker) logJob(job *Job, msg string, args ...any) {
	if w.Log == nil {
		return
	}
	w.Log.Info(msg, append([]any{
		"worker", w.ID, "sweep", job.SweepID, "lease", job.LeaseID,
		"point", pointLabel(job.Point), "point_id", job.PointID,
		"attempt", job.Attempt, "corr", job.Corr,
	}, args...)...)
}

// Run leases and executes points until ctx is canceled or the server
// drains. Cancellation is graceful: in-flight points finish and deliver
// (the run itself is only abandoned if the server says the lease is gone).
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(w.Parallel, 1))
	defer wg.Wait()
	specs := specCache{specs: map[string]*SweepSpec{}}
	for {
		// Take the slot before leasing: a lease granted with no slot free
		// would sit unheartbeated and could lapse before its run starts.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil
		}
		job, err := w.Client.Lease(ctx, w.ID, specs.ids...)
		if job == nil {
			<-sem
		}
		if errors.Is(err, ErrDraining) {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if job == nil {
			continue
		}
		if job.Spec == nil {
			job.Spec = specs.specs[job.SweepID]
		} else {
			specs.put(job.SweepID, job.Spec)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			w.runJob(ctx, job)
		}()
	}
}

// specCacheSize bounds the specs a worker keeps; a spec pushed out is sent
// again with the sweep's next job.
const specCacheSize = 8

// specCache holds the specs of the sweeps a worker leased from most
// recently. Only Run's goroutine touches it.
type specCache struct {
	ids   []string // oldest first; sent as leaseRequest.HaveSpecs
	specs map[string]*SweepSpec
}

func (c *specCache) put(id string, spec *SweepSpec) {
	if _, ok := c.specs[id]; ok {
		return
	}
	if len(c.ids) == specCacheSize {
		delete(c.specs, c.ids[0])
		c.ids = slices.Delete(c.ids, 0, 1)
	}
	c.ids = append(c.ids, id)
	c.specs[id] = spec
}

// runJob executes one leased point end to end. The run is detached from the
// lease loop's cancellation — a SIGTERM stops new leases but lets this
// point finish and deliver — and is instead canceled when the server
// declares the lease gone (the point is already re-queued; finishing would
// only waste cycles).
func (w *Worker) runJob(ctx context.Context, job *Job) {
	w.logJob(job, "lease_granted")
	if job.Spec == nil {
		w.failJob(job, "job came without a spec and none is cached", nil)
		return
	}
	prof, cfg, err := job.Spec.Resolve(job.Point)
	if err != nil {
		w.failJob(job, fmt.Sprintf("resolve: %v", err), nil)
		return
	}
	if h := scalablebulk.ConfigHash(cfg); h != job.ConfigHash {
		// Version skew: this binary derives a different canonical config
		// than the server's. Running would journal under a key the server
		// can never match — refuse loudly instead.
		w.failJob(job, fmt.Sprintf(
			"config hash skew: worker derives %s, server expects %s (mismatched binaries?)",
			h, job.ConfigHash), nil)
		return
	}

	// The run outlives the lease loop's ctx (graceful drain) but dies with
	// the lease: heartbeats renew it, and a gone lease cancels the run.
	runCtx, cancelRun := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelRun()
	leaseGone := false
	hbDone := make(chan struct{})
	ttl := time.Duration(job.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
			}
			hbCtx, cancel := context.WithTimeout(runCtx, ttl)
			err := w.Client.Heartbeat(hbCtx, job, w.ID)
			cancel()
			if errors.Is(err, ErrLeaseGone) {
				leaseGone = true
				cancelRun()
				return
			}
		}
	}()

	var before func(*scalablebulk.Config)
	if w.OnPoint != nil {
		before = func(*scalablebulk.Config) { w.OnPoint(w.ID, job.Point) }
	}
	start := time.Now()
	res, restored, runErr := w.warm.Run(runCtx, job.Point, prof, cfg, true, before)
	cancelRun()
	<-hbDone
	if leaseGone {
		// The server presumed us dead and re-queued the point; someone
		// else owns it now. Abandon silently.
		w.logJob(job, "lease_gone")
		return
	}
	if runErr != nil {
		var ce *scalablebulk.CrashError
		var crash *scalablebulk.CrashReport
		if errors.As(runErr, &ce) {
			crash = ce.Report
			crash.Corr = job.Corr
		}
		w.failJob(job, runErr.Error(), crash)
		return
	}
	// Delivery uses a fresh context: even a canceled worker delivers the
	// finished result (bounded, in case the server is gone for good).
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Minute)
	defer cancel()
	if err := w.Client.Result(dctx, job, w.ID, res, time.Since(start)); err != nil {
		w.logJob(job, "result_delivery_failed", "error", err.Error())
		return
	}
	warm := "built"
	if restored {
		warm = "restored"
	}
	w.logJob(job, "completed", "warm", warm)
}

// failJob reports a failure, best-effort and bounded.
func (w *Worker) failJob(job *Job, msg string, crash *scalablebulk.CrashReport) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// A lost report is harmless: the lease expires and the server requeues
	// the point.
	_ = w.Client.Fail(ctx, job, w.ID, msg, crash)
	w.logJob(job, "run_failed", "error", msg, "crashed", crash != nil)
}
