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
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
// retried call lands on the recovered state.
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
	// NoSSE forces RunSweep onto the cursor-polling path.
	NoSSE bool
	// SSEIdle bounds how long an SSE stream may go silent (no events, no
	// keepalives) before the client abandons the connection and redials.
	// 0 selects 30s.
	SSEIdle time.Duration
	// Log, when non-nil, receives structured progress lines (submission,
	// per-point completion, transport fallbacks) carrying Corr.
	Log *slog.Logger
	// RetryInterval paces transport-retry backoff (0 selects 250ms);
	// MaxRetryWait bounds it (0 selects 5s).
	RetryInterval time.Duration
	MaxRetryWait  time.Duration
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
// until ctx is done.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	interval := c.RetryInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
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

// Submit registers spec with the server (idempotent: resubmitting an
// identical spec attaches to the live sweep).
func (c *Client) Submit(ctx context.Context, spec *SweepSpec) (*SubmitResponse, error) {
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", spec, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Status fetches sweep status plus the result stream after cursor.
func (c *Client) Status(ctx context.Context, sweepID string, after int) (*SweepStatus, error) {
	var st SweepStatus
	q := url.Values{"id": {sweepID}, "after": {strconv.Itoa(after)}}
	if err := c.do(ctx, http.MethodGet, "/v1/sweep?"+q.Encode(), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Progress fetches the server's live per-sweep aggregation.
func (c *Client) Progress(ctx context.Context, sweepID string) (*SweepProgress, error) {
	var p SweepProgress
	if err := c.do(ctx, http.MethodGet, "/api/v1/sweeps/"+sweepID+"/progress", nil, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// FarmStatus fetches the whole-farm view (sbtop's endpoint) with an event
// tail of up to events entries.
func (c *Client) FarmStatus(ctx context.Context, events int) (*FarmStatus, error) {
	var fs FarmStatus
	q := url.Values{"events": {strconv.Itoa(events)}}
	if err := c.do(ctx, http.MethodGet, "/api/v1/farm?"+q.Encode(), nil, &fs); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Lease asks for work. haveSpecs lists the sweeps whose spec the caller
// already holds; a job for one of them comes with a nil Spec. A nil job with
// nil error means nothing became runnable while the server held the request
// (ask again after the returned wait, which only an older server sets);
// ErrDraining means stop.
func (c *Client) Lease(ctx context.Context, worker string, haveSpecs ...string) (*Job, time.Duration, error) {
	var resp leaseResponse
	req := leaseRequest{Worker: worker, HaveSpecs: haveSpecs}
	if err := c.do(ctx, http.MethodPost, "/v1/lease", req, &resp); err != nil {
		return nil, 0, err
	}
	if resp.Draining {
		return nil, 0, ErrDraining
	}
	retry := time.Duration(resp.RetryMS) * time.Millisecond
	return resp.Job, retry, nil
}

// Heartbeat renews a lease; ErrLeaseGone means abandon the run.
func (c *Client) Heartbeat(ctx context.Context, job *Job, worker string) error {
	err := c.do(ctx, http.MethodPost, "/v1/heartbeat", heartbeatRequest{
		SweepID: job.SweepID, LeaseID: job.LeaseID, Worker: worker,
	}, nil)
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
	}, nil)
}

// Fail reports a failed (or crashed) run.
func (c *Client) Fail(ctx context.Context, job *Job, worker, msg string, crash *scalablebulk.CrashReport) error {
	return c.do(ctx, http.MethodPost, "/v1/fail", failRequest{
		SweepID: job.SweepID, LeaseID: job.LeaseID, Worker: worker, Corr: job.Corr,
		PointID: job.PointID, Point: job.Point, Error: msg, Crash: crash,
	}, nil)
}

// sweepRun accumulates one RunSweep's state. Both delivery paths — SSE and
// cursor polling — funnel every PointResult through apply, which verifies,
// dedupes by PointID, and updates the outcome exactly once per point; that
// shared idempotent sink is why the two paths (and any mid-run switch
// between them) converge to identical outcomes.
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
	return r.out.Completed+len(r.out.Failures) >= r.out.Points
}

// RunSweep is the thin-client driver the CLIs' -server mode uses: submit
// the spec, then consume the result stream until every point is terminal,
// returning a SweepOutcome shaped exactly like Session.SweepContext's.
//
// The stream arrives over SSE (GET /api/v1/sweeps/{id}/events) with
// Last-Event-ID resume; when the transport proves SSE-hostile — repeated
// silent streams, a proxy that strips the content type — the client falls
// back permanently to cursor polling. Either way every result passes the
// same verify-dedupe-apply sink, so the two paths converge byte-identically.
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
	if !c.NoSSE {
		done, err := c.runSweepSSE(ctx, spec, sub.SweepID, run)
		if done || err != nil {
			return run.out, err
		}
		c.logInfo("sse_fallback", "sweep", sub.SweepID,
			"detail", "transport breaks SSE; switching to cursor polling")
	}
	return c.runSweepPoll(ctx, spec, sub.SweepID, run)
}

// sseFallbackAfter is how many consecutive connection attempts may die
// without delivering a single event before the client declares the
// transport SSE-hostile and falls back to polling.
const sseFallbackAfter = 5

// runSweepSSE consumes the sweep over SSE. Returns done=true when the sweep
// reached terminal (or ctx died — run.out is marked aborted); done=false
// with nil error means SSE is unusable here and the caller should poll.
func (c *Client) runSweepSSE(ctx context.Context, spec *SweepSpec, sweepID string, run *sweepRun) (done bool, err error) {
	idle := c.SSEIdle
	if idle <= 0 {
		idle = 30 * time.Second
	}
	backoff := c.RetryInterval
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	var lastID uint64
	silentConnects := 0
	for {
		if ctx.Err() != nil {
			run.out.Aborted = true
			return true, nil
		}
		gotEvent, fatal, err := c.sseAttempt(ctx, sweepID, lastID, idle, run, &lastID)
		if run.terminal() {
			return true, nil
		}
		if fatal != nil {
			return true, fatal
		}
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				if he.Status == http.StatusNotFound {
					// Server restarted and lost the sweep: resubmit
					// (idempotent; journaled points restore) and rewind.
					if _, serr := c.Submit(ctx, spec); serr != nil {
						return true, serr
					}
					lastID = 0
					continue
				}
				// The server (or something impersonating it) answered
				// non-2xx: SSE is not going to work on this path.
				return false, nil
			}
		}
		if gotEvent {
			silentConnects = 0
		} else {
			silentConnects++
			if silentConnects >= sseFallbackAfter {
				return false, nil
			}
		}
		select {
		case <-ctx.Done():
			run.out.Aborted = true
			return true, nil
		case <-time.After(backoff):
		}
	}
}

// sseAttempt runs one SSE connection until the stream ends, errors, goes
// idle past the watchdog, or the sweep finishes. gotEvent reports whether
// at least one event arrived; fatal carries unrecoverable errors (divergent
// fingerprints, undecodable results).
func (c *Client) sseAttempt(ctx context.Context, sweepID string, after uint64, idle time.Duration, run *sweepRun, lastID *uint64) (gotEvent bool, fatal, connErr error) {
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(connCtx, http.MethodGet,
		c.Base+"/api/v1/sweeps/"+sweepID+"/events", nil)
	if err != nil {
		return false, err, nil
	}
	req.Header.Set("Accept", "text/event-stream")
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(after, 10))
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
		return false, nil, err
	}
	defer func() {
		// Cancel first: the stream may still be live (early terminal exit),
		// and a canceled connection tears down instead of lingering.
		cancel()
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, nil, &httpError{Status: resp.StatusCode,
			Body: string(bytes.TrimSpace(body))}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		// A proxy rewrote the stream into something else: poll instead.
		return false, nil, &httpError{Status: resp.StatusCode, Body: "not an event stream: " + ct}
	}

	rd := newSSEReader(bufio.NewReader(resp.Body), func() { watchdog.Reset(idle) })
	for {
		ev, err := rd.next()
		if err != nil {
			return gotEvent, nil, err
		}
		gotEvent = true
		if ev.ID != "" {
			if id, perr := strconv.ParseUint(ev.ID, 10, 64); perr == nil {
				*lastID = id
			}
		}
		switch ev.Type {
		case sseResult:
			var pr PointResult
			if err := json.Unmarshal(ev.Data, &pr); err != nil {
				return gotEvent, fmt.Errorf("farm: undecodable SSE result: %w", err), nil
			}
			if err := run.apply(pr); err != nil {
				return gotEvent, err, nil
			}
		case sseSnapshot:
			var st SweepStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil {
				return gotEvent, fmt.Errorf("farm: undecodable SSE snapshot: %w", err), nil
			}
			for _, pr := range st.Results {
				if err := run.apply(pr); err != nil {
					return gotEvent, err, nil
				}
			}
		case sseEnd:
			if !run.terminal() {
				// The server says terminal but we missed results (should be
				// impossible — end follows the drained stream). Resync via
				// the polling path rather than trust a broken stream.
				return gotEvent, nil, fmt.Errorf("farm: SSE end with %d/%d points applied",
					run.out.Completed+len(run.out.Failures), run.out.Points)
			}
			return gotEvent, nil, nil
		default:
			// farm/progress events are telemetry here; they also reset the
			// watchdog via onActivity.
		}
		if run.terminal() {
			return gotEvent, nil, nil
		}
	}
}

// runSweepPoll is the cursor-polling driver (and the SSE fallback). On
// reconnect (any successful resubmission after a transport gap) the cursor
// resets to zero and results dedupe by point — the stream is append-only, so
// nothing is lost or double-counted.
func (c *Client) runSweepPoll(ctx context.Context, spec *SweepSpec, sweepID string, run *sweepRun) (*scalablebulk.SweepOutcome, error) {
	cursor := 0
	poll := c.RetryInterval
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, sweepID, cursor)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) && he.Status == http.StatusNotFound {
				// The server restarted and lost the in-memory sweep:
				// resubmit (idempotent — journaled points restore) and
				// rewind the cursor; seen dedupes replayed results.
				if _, err := c.Submit(ctx, spec); err != nil {
					return run.out, err
				}
				cursor = 0
				continue
			}
			if ctx.Err() != nil {
				run.out.Aborted = true
				return run.out, nil
			}
			return run.out, err
		}
		cursor = st.NextCursor
		for _, pr := range st.Results {
			if err := run.apply(pr); err != nil {
				return run.out, err
			}
		}
		if st.Terminal() {
			return run.out, nil
		}
		select {
		case <-ctx.Done():
			run.out.Aborted = true
			return run.out, nil
		case <-time.After(poll):
		}
	}
}
