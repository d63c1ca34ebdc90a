package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	scalablebulk "scalablebulk"
)

// ErrLeaseGone reports a heartbeat or delivery against a lease the server
// no longer holds: the lease expired (the worker looked dead) or the point
// resolved elsewhere. The worker's correct response is to abandon the run
// silently — the server has already re-queued or finished the point.
var ErrLeaseGone = errors.New("farm: lease gone")

// ErrDraining reports a lease request against a draining server.
var ErrDraining = errors.New("farm: server is draining")

// Client speaks the farm wire protocol. Transport-level failures —
// connection refused, reset, timeout — are retried with backoff until the
// context dies, which is what lets a thin client or worker ride through a
// server restart: the server comes back, replays its journal, and the
// retried call lands on the recovered state. The one exception is Submit
// before the Client has had any answer: a refused connection or an
// unresolvable host then means a wrong address, not a restart, and fails
// at once.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8356".
	Base string
	// HTTP is the underlying client; nil selects a default with sane
	// timeouts. Tests wire a FaultTransport here. SSE streams reuse only
	// its Transport — a whole-request Timeout would kill a long stream.
	HTTP *http.Client
	// Corr is the correlation ID stamped on every request
	// (X-Correlation-ID). RunSweep mints one (NewCorrID) when empty.
	Corr string
	// SSEIdle bounds how long an SSE stream may go silent (no events, no
	// keepalives) before the client abandons the connection and redials.
	// 0 selects 30s.
	SSEIdle time.Duration
	// Log, when non-nil, receives structured progress lines (submission,
	// per-point completion, stream redials) carrying Corr.
	Log *slog.Logger
	// RetryInterval paces transport-retry backoff and SSE redials (0
	// selects 250ms); MaxRetryWait bounds the backoff (0 selects 5s).
	RetryInterval time.Duration
	MaxRetryWait  time.Duration

	// answered is set by the first HTTP answer the server gives.
	answered atomic.Bool
}

// defaultRetryInterval is RetryInterval's value when unset.
const defaultRetryInterval = 250 * time.Millisecond

func (c *Client) retryInterval() time.Duration {
	if c.RetryInterval > 0 {
		return c.RetryInterval
	}
	return defaultRetryInterval
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// sseHTTP is the streaming client: same transport (so fault injection and
// test wiring apply), no overall timeout (a healthy stream lives for the
// whole sweep — the idle watchdog bounds a dead one instead).
func (c *Client) sseHTTP() *http.Client {
	if c.HTTP != nil {
		return &http.Client{Transport: c.HTTP.Transport}
	}
	return &http.Client{}
}

func (c *Client) logInfo(msg string, args ...any) {
	if c.Log != nil {
		c.Log.Info(msg, append([]any{"corr", c.Corr}, args...)...)
	}
}

// httpError is a non-2xx response: the server answered, so the transport
// works and retrying the same request is pointless unless the status says
// otherwise.
type httpError struct {
	Status int
	Body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("farm: server returned %d: %s", e.Status, e.Body)
}

// do POSTs (or GETs when body is nil) path with a JSON body and decodes the
// JSON response into out, retrying transport errors with capped backoff
// until ctx is done. With failFast, and before the Client's first answer, a
// server that cannot be reached at all returns at once.
func (c *Client) do(ctx context.Context, method, path string, body, out any, failFast bool) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	interval := c.retryInterval()
	maxWait := c.MaxRetryWait
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	for {
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.Corr != "" {
			req.Header.Set(CorrHeader, c.Corr)
		}
		resp, err := c.http().Do(req)
		if err == nil {
			c.answered.Store(true)
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				if resp.StatusCode/100 != 2 {
					return &httpError{Status: resp.StatusCode,
						Body: string(bytes.TrimSpace(data))}
				}
				if out == nil {
					return nil
				}
				return json.Unmarshal(data, out)
			}
			err = rerr
		}
		if failFast && !c.answered.Load() && unreachable(err) {
			return fmt.Errorf("farm: %s %s: server unreachable: %w", method, path, err)
		}
		// Transport failure: the server may be restarting. Back off and
		// retry until the caller gives up.
		select {
		case <-ctx.Done():
			return fmt.Errorf("farm: %s %s: %w (last transport error: %v)",
				method, path, ctx.Err(), err)
		case <-time.After(interval):
		}
		interval *= 2
		if interval > maxWait {
			interval = maxWait
		}
	}
}

// unreachable reports a transport error that no restart explains: the
// connection was refused or the host name does not resolve.
func unreachable(err error) bool {
	var dns *net.DNSError
	return errors.Is(err, syscall.ECONNREFUSED) || errors.As(err, &dns)
}

// Submit registers spec with the server (idempotent: resubmitting an
// identical spec attaches to the live sweep). Before the Client has had any
// answer, a refused connection or an unresolvable host fails at once.
func (c *Client) Submit(ctx context.Context, spec *SweepSpec) (*SubmitResponse, error) {
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", spec, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Progress fetches the server's live per-sweep aggregation.
func (c *Client) Progress(ctx context.Context, sweepID string) (*SweepProgress, error) {
	var p SweepProgress
	if err := c.do(ctx, http.MethodGet, "/api/v1/sweeps/"+sweepID+"/progress", nil, &p, false); err != nil {
		return nil, err
	}
	return &p, nil
}

// FarmStatus fetches the whole-farm view (sbtop's endpoint) with an event
// tail of up to events entries.
func (c *Client) FarmStatus(ctx context.Context, events int) (*FarmStatus, error) {
	var fs FarmStatus
	q := url.Values{"events": {strconv.Itoa(events)}}
	if err := c.do(ctx, http.MethodGet, "/api/v1/farm?"+q.Encode(), nil, &fs, false); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Lease asks for work. haveSpecs lists the sweeps whose spec the caller
// already holds; a job for one of them comes with a nil Spec. A nil job with
// nil error means nothing became runnable while the server held the request:
// ask again. ErrDraining means stop.
func (c *Client) Lease(ctx context.Context, worker string, haveSpecs ...string) (*Job, error) {
	var resp leaseResponse
	req := leaseRequest{Worker: worker, HaveSpecs: haveSpecs}
	if err := c.do(ctx, http.MethodPost, "/v1/lease", req, &resp, false); err != nil {
		return nil, err
	}
	if resp.Draining {
		return nil, ErrDraining
	}
	return resp.Job, nil
}

// Heartbeat renews a lease; ErrLeaseGone means abandon the run.
func (c *Client) Heartbeat(ctx context.Context, job *Job, worker string) error {
	err := c.do(ctx, http.MethodPost, "/v1/heartbeat", heartbeatRequest{
		SweepID: job.SweepID, LeaseID: job.LeaseID, Worker: worker,
	}, nil, false)
	var he *httpError
	if errors.As(err, &he) && he.Status == http.StatusGone {
		return ErrLeaseGone
	}
	return err
}

// Result delivers a completed point.
func (c *Client) Result(ctx context.Context, job *Job, worker string, res *scalablebulk.Result, wall time.Duration) error {
	data, err := scalablebulk.MarshalResult(res)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/result", resultRequest{
		SweepID: job.SweepID, LeaseID: job.LeaseID, Worker: worker, Corr: job.Corr,
		PointID: job.PointID, Point: job.Point, ConfigHash: job.ConfigHash,
		FingerprintSHA: scalablebulk.FingerprintSHA(res),
		Result:         data,
		WallMS:         float64(wall.Microseconds()) / 1000,
	}, nil, false)
}

// Fail reports a failed (or crashed) run.
func (c *Client) Fail(ctx context.Context, job *Job, worker, msg string, crash *scalablebulk.CrashReport) error {
	return c.do(ctx, http.MethodPost, "/v1/fail", failRequest{
		SweepID: job.SweepID, LeaseID: job.LeaseID, Worker: worker, Corr: job.Corr,
		PointID: job.PointID, Point: job.Point, Error: msg, Crash: crash,
	}, nil, false)
}

// sweepRun accumulates one RunSweep's state. Every PointResult — live
// result events and the replays that follow a redial or a resubmission —
// funnels through apply, which verifies, dedupes by PointID,
// and updates the outcome exactly once per point.
type sweepRun struct {
	c        *Client
	out      *scalablebulk.SweepOutcome
	seen     map[int]bool
	onResult func(p Point, res *scalablebulk.Result, restored bool)
}

// apply folds one terminal point into the outcome (idempotently).
func (r *sweepRun) apply(pr PointResult) error {
	if r.seen[pr.PointID] {
		return nil
	}
	r.seen[pr.PointID] = true
	switch pr.Status {
	case StatusDone:
		res, err := scalablebulk.UnmarshalResult(pr.Result)
		if err != nil {
			return fmt.Errorf("farm: undecodable result for %s: %w",
				pointLabel(pr.Point), err)
		}
		if scalablebulk.FingerprintSHA(res) != pr.FingerprintSHA {
			return fmt.Errorf("farm: result for %s does not verify against its fingerprint",
				pointLabel(pr.Point))
		}
		r.out.Completed++
		if pr.Restored {
			r.out.Restored++
		}
		r.c.logInfo("point_done", "point", pointLabel(pr.Point),
			"point_id", pr.PointID, "restored", pr.Restored)
		if r.onResult != nil {
			r.onResult(pr.Point, res, pr.Restored)
		}
	default:
		r.c.logInfo("point_failed", "point", pointLabel(pr.Point),
			"point_id", pr.PointID, "status", pr.Status, "error", pr.Error)
		r.out.Failures = append(r.out.Failures, scalablebulk.PointFailure{
			Point: pr.Point, Err: fmt.Errorf("%s: %s", pr.Status, pr.Error),
		})
	}
	return nil
}

// terminal reports whether every point has been applied.
func (r *sweepRun) terminal() bool {
	return r.applied() >= r.out.Points
}

func (r *sweepRun) applied() int {
	return r.out.Completed + len(r.out.Failures)
}

// RunSweep is the thin-client driver the CLIs' -server mode uses: submit
// the spec, then follow the sweep's SSE stream (GET
// /api/v1/sweeps/{id}/events) until every point is terminal, returning a
// SweepOutcome shaped exactly like Session.SweepContext's.
//
// The stream fails the way Client.do does. A transport error, a cut stream
// or one silent past SSEIdle is redialed with Last-Event-ID after
// RetryInterval until ctx ends (the outcome is then marked Aborted). A 404
// means the server restarted and lost the sweep: RunSweep resubmits and
// rewinds to the start of the stream. Any other non-2xx answer, a
// Content-Type other than text/event-stream, a result that does not verify,
// or an end event before every point arrived is returned as an error.
// onResult, when non-nil, observes each completed point once, with the
// restored flag distinguishing journal hits from fresh runs.
func (c *Client) RunSweep(ctx context.Context, spec *SweepSpec, onResult func(p Point, res *scalablebulk.Result, restored bool)) (*scalablebulk.SweepOutcome, error) {
	if c.Corr == "" {
		c.Corr = NewCorrID()
	}
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	c.logInfo("sweep_submitted", "sweep", sub.SweepID,
		"points", sub.Points, "restored", sub.Restored)
	run := &sweepRun{
		c:        c,
		out:      &scalablebulk.SweepOutcome{Points: sub.Points},
		seen:     make(map[int]bool, sub.Points),
		onResult: onResult,
	}
	idle := c.SSEIdle
	if idle <= 0 {
		idle = 30 * time.Second
	}
	backoff := c.retryInterval()
	var lastID string
	for {
		redial, err := c.stream(ctx, sub.SweepID, idle, run, &lastID)
		if run.terminal() {
			return run.out, nil
		}
		if ctx.Err() != nil {
			run.out.Aborted = true
			return run.out, nil
		}
		var he *httpError
		if errors.As(err, &he) && he.Status == http.StatusNotFound {
			// Server restarted and lost the sweep: resubmit (idempotent;
			// journaled points restore) and rewind.
			if _, err := c.Submit(ctx, spec); err != nil {
				return run.out, err
			}
			lastID = ""
			continue
		}
		if !redial {
			return run.out, err
		}
		c.logInfo("sse_redial", "sweep", sub.SweepID, "after", lastID, "error", err)
		select {
		case <-ctx.Done():
			run.out.Aborted = true
			return run.out, nil
		case <-time.After(backoff):
		}
	}
}

// stream follows one SSE connection until the sweep is terminal, the
// connection breaks, or the server answers something the client cannot use.
// redial reports a broken connection — a transport error, a cut stream, or
// one the idle watchdog cut — with err saying what broke. Otherwise a
// non-nil err is final (an *httpError for a non-2xx answer). lastID tracks
// the newest event id received, an opaque string the next connection sends
// back as its resume point.
func (c *Client) stream(ctx context.Context, sweepID string, idle time.Duration, run *sweepRun, lastID *string) (redial bool, err error) {
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(connCtx, http.MethodGet,
		c.Base+"/api/v1/sweeps/"+sweepID+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	if c.Corr != "" {
		req.Header.Set(CorrHeader, c.Corr)
	}

	// Idle watchdog: a stream that goes silent — a transport that buffered
	// the response, a half-dead connection — is cut and redialed. Keepalive
	// pings reset it, so a healthy-but-quiet farm is not cut.
	watchdog := time.AfterFunc(idle, cancel)
	defer watchdog.Stop()

	resp, err := c.sseHTTP().Do(req)
	if err != nil {
		return true, err
	}
	defer func() {
		// Cancel first: the stream may still be live (early terminal exit),
		// and a canceled connection tears down instead of lingering.
		cancel()
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, &httpError{Status: resp.StatusCode,
			Body: string(bytes.TrimSpace(body))}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		// Something between client and server rewrote the stream.
		return false, fmt.Errorf("farm: %s answered %q, not an event stream", req.URL.Path, ct)
	}

	rd := newSSEReader(bufio.NewReader(resp.Body), func() { watchdog.Reset(idle) })
	for {
		ev, err := rd.next()
		if err != nil {
			return true, err
		}
		if ev.ID != "" {
			*lastID = ev.ID
		}
		switch ev.Type {
		case sseResult:
			var pr PointResult
			if err := json.Unmarshal(ev.Data, &pr); err != nil {
				return false, fmt.Errorf("farm: undecodable SSE result: %w", err)
			}
			if err := run.apply(pr); err != nil {
				return false, err
			}
		case sseEnd:
			if !run.terminal() {
				// end follows the drained stream, so a server that sends it
				// early has lost results; redialing would only repeat it.
				return false, fmt.Errorf("farm: SSE end with %d/%d points applied",
					run.applied(), run.out.Points)
			}
			return false, nil
		default:
			// Other event types (an older server's farm and progress
			// telemetry) are ignored; like pings they reset the watchdog
			// via onActivity.
		}
		if run.terminal() {
			return false, nil
		}
	}
}
