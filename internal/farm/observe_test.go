package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/metrics"
)

// TestSSESweepConvergesUnderLossyRPC: the headline SSE contract — a client
// consuming a sweep over SSE through a lossy fault-injecting transport
// (drops, duplicates, delays) converges to byte-identical
// ResultFingerprints against the in-process reference, with zero divergent
// results.
func TestSSESweepConvergesUnderLossyRPC(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)

	reg := metrics.NewRegistry()
	opts := quickOpts()
	opts.Metrics = reg
	opts.SSEPing = 100 * time.Millisecond
	base, _, stop := startServer(t, opts, filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, fastClient(base), "w1", nil)
	defer wg.Wait()

	prof, err := RPCFaultByName("lossy", 7)
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(base)
	c.HTTP = &http.Client{Transport: NewFaultTransport(nil, *prof)}
	c.SSEIdle = 2 * time.Second
	got := map[Point]string{}
	out, err := c.RunSweep(ctx, spec, func(p Point, res *scalablebulk.Result, _ bool) {
		got[p] = scalablebulk.FingerprintSHA(res)
	})
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(spec.Points) || len(out.Failures) > 0 || out.Aborted {
		t.Fatalf("outcome: %+v", out)
	}
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: fingerprint %s != in-process %s",
				p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}

	snap := reg.Snapshot()
	if snap.Counters["farm_sse_connects"] == 0 {
		t.Error("farm_sse_connects never incremented: the SSE path was not exercised")
	}
	if n := snap.Counters["farm_results_divergent"]; n != 0 {
		t.Errorf("farm_results_divergent = %d, want 0", n)
	}
}

// readSSE connects to a sweep's event stream, resuming after lastID when
// it is set, and returns every event up to and including "end".
func readSSE(ctx context.Context, t *testing.T, base, sweepID, lastID string) []*sseEvent {
	t.Helper()
	resp := connectSSE(ctx, t, base, sweepID, lastID)
	defer resp.Body.Close()
	var evs []*sseEvent
	rd := newSSEReader(bufio.NewReader(resp.Body), nil)
	for {
		ev, err := rd.next()
		if err != nil {
			t.Fatalf("stream after %q: %v", lastID, err)
		}
		evs = append(evs, ev)
		if ev.Type == sseEnd {
			return evs
		}
	}
}

func connectSSE(ctx context.Context, t *testing.T, base, sweepID, lastID string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/sweeps/"+sweepID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE connect: %d", resp.StatusCode)
	}
	return resp
}

// TestSSEResumeAfterStreamKill kills an SSE stream after its first result,
// lets the sweep finish while disconnected, and reconnects with the last id
// received. The event ring holds only two events, far fewer than the sweep
// emits, to show that resuming does not depend on it: the resumed stream
// starts right after that id, sends no snapshot, and across both streams
// every result arrives exactly once, with fingerprints matching the
// in-process reference.
func TestSSEResumeAfterStreamKill(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)

	opts := quickOpts()
	opts.EventHistory = 2
	opts.SSEPing = 100 * time.Millisecond
	base, srv, stop := startServer(t, opts, filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	c := fastClient(base)
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Connect before any worker runs so the first result arrives live.
	resp := connectSSE(ctx, t, base, sub.SweepID, "")

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, fastClient(base), "w1", nil)
	defer wg.Wait()

	run := &sweepRun{
		c:    c,
		out:  &scalablebulk.SweepOutcome{Points: sub.Points},
		seen: map[int]bool{},
	}
	got := map[Point]string{}
	run.onResult = func(p Point, res *scalablebulk.Result, _ bool) {
		got[p] = scalablebulk.FingerprintSHA(res)
	}
	sent := map[int]int{} // result events per point, across both streams
	apply := func(ev *sseEvent) {
		t.Helper()
		var pr PointResult
		if err := json.Unmarshal(ev.Data, &pr); err != nil {
			t.Fatal(err)
		}
		sent[pr.PointID]++
		if err := run.apply(pr); err != nil {
			t.Fatal(err)
		}
	}

	// Read until the first result, then kill the stream mid-sweep.
	var lastID string
	rd := newSSEReader(bufio.NewReader(resp.Body), nil)
	for lastID == "" {
		ev, err := rd.next()
		if err != nil {
			t.Fatalf("first stream died before a result: %v", err)
		}
		if ev.Type == sseResult {
			lastID = ev.ID
			apply(ev)
		}
	}
	resp.Body.Close()
	if want := srv.instance + ".1"; lastID != want {
		t.Fatalf("first result id %q, want %q", lastID, want)
	}

	// Let the sweep finish (and the tiny ring evict) while disconnected.
	deadline := time.Now().Add(time.Minute)
	for {
		p, err := c.Progress(ctx, sub.SweepID)
		if err != nil {
			t.Fatal(err)
		}
		if p.Terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	wcancel()

	evs := readSSE(ctx, t, base, sub.SweepID, lastID)
	if evs[0].ID != srv.instance+".2" {
		t.Errorf("resumed stream starts at id %q, want %s.2", evs[0].ID, srv.instance)
	}
	for _, ev := range evs {
		switch ev.Type {
		case sseResult:
			apply(ev)
		case sseEnd:
		default:
			t.Errorf("resumed stream sent a %q event", ev.Type)
		}
	}
	for id, n := range sent {
		if n != 1 {
			t.Errorf("point %d sent %d times, want once", id, n)
		}
	}
	if run.out.Completed != len(spec.Points) || len(run.out.Failures) > 0 {
		t.Fatalf("outcome after resume: %+v", run.out)
	}
	for p, fp := range want {
		if got[p] != fp {
			t.Errorf("%s/%s/%d: fingerprint %s != in-process %s",
				p.App, p.Protocol, p.Cores, got[p], fp)
		}
	}
}

// TestSSEForeignResumeIDReplaysEveryResult: a resume id this server did not
// issue replays the whole result stream. Each case restarts the server on a
// journal that holds the whole sweep, resubmits it (so every point restores)
// and resumes with the case's id. A bare number is what a server that
// numbered its events by hub seq issued; on such a server "3" skipped the
// results before seq 3, and the stream ended with 1 of 3.
func TestSSEForeignResumeIDReplaysEveryResult(t *testing.T) {
	spec := testSpec()
	journal := filepath.Join(t.TempDir(), "farm.jsonl")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base, _, stop := startServer(t, quickOpts(), journal, "")
	wctx, wcancel := context.WithCancel(ctx)
	wg := startWorker(wctx, fastClient(base), "w1", nil)
	_, err := fastClient(base).RunSweep(ctx, spec, nil)
	wcancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The first result id the first server issued.
	otherInstance := readSSE(ctx, t, base, spec.ID(), "")[0].ID
	stop()

	for _, tc := range []struct{ name, lastID string }{
		{"3", "3"}, {"9999", "9999"}, {"garbage", "garbage"},
		{"other instance", otherInstance},
	} {
		lastID := tc.lastID
		t.Run(tc.name, func(t *testing.T) {
			base, _, stop := startServer(t, quickOpts(), journal, "")
			defer stop()
			if _, err := fastClient(base).Submit(ctx, spec); err != nil {
				t.Fatal(err)
			}
			got := map[int]bool{}
			for _, ev := range readSSE(ctx, t, base, spec.ID(), lastID) {
				switch ev.Type {
				case sseResult:
					var pr PointResult
					if err := json.Unmarshal(ev.Data, &pr); err != nil {
						t.Fatal(err)
					}
					got[pr.PointID] = true
				case sseEnd:
				default:
					t.Errorf("stream sent a %q event", ev.Type)
				}
			}
			if len(got) != len(spec.Points) {
				t.Errorf("resumed after %q: %d of %d results before end",
					lastID, len(got), len(spec.Points))
			}
		})
	}
}

// TestRunSweepFailsFastWhenServerUnreachable: a thin client whose server
// refuses every connection from the start has the wrong address, not a
// restarting server, so RunSweep returns the error instead of retrying
// until its context ends.
func TestRunSweepFailsFastWhenServerUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err = fastClient(base).RunSweep(ctx, testSpec(), nil)
	if d := time.Since(start); d > time.Second {
		t.Errorf("RunSweep took %v, want ≤ 1s", d)
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("RunSweep error %v, want a refused connection", err)
	}
}

// TestHostileEventStreamsFail: an events route that answers something a
// redial cannot fix ends RunSweep with an error, promptly and without
// marking the outcome aborted. The rest of the API is a real server with no
// workers, so nothing else could finish the sweep.
func TestHostileEventStreamsFail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events http.HandlerFunc
	}{
		{"premature end", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
		}},
		{"rewritten to text/plain", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprint(w, "event: progress\ndata: {}\n\n")
		}},
		{"500", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "upstream broke", http.StatusInternalServerError)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			api := NewServer(quickOpts()).Handler()
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/events") {
					tc.events(w, r)
					return
				}
				api.ServeHTTP(w, r)
			}))
			defer hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			out, err := fastClient(hs.URL).RunSweep(ctx, testSpec(), nil)
			if d := time.Since(start); d > time.Second {
				t.Errorf("RunSweep took %v, want ≤ 1s", d)
			}
			if err == nil {
				t.Errorf("RunSweep returned no error (outcome %+v)", out)
			}
			if out != nil && out.Aborted {
				t.Errorf("outcome marked aborted: %+v", out)
			}
		})
	}
}

// TestEndFollowsEveryResult: "end" comes only after every result. Here
// the last point turns terminal inside the stream's own check: its lease
// expires there and it is poisoned, which emits its result. A stream that
// drained before that check would send "end" without the result, and the
// client would fail the sweep.
func TestEndFollowsEveryResult(t *testing.T) {
	opts := quickOpts()
	opts.PoisonAfter, opts.MaxAttempts = 1, 1
	opts.SSEPing = 10 * time.Millisecond
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c := fastClient(base)
	spec := testSpec()
	spec.Points = spec.Points[:1]
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if job, err := c.Lease(ctx, "w-dead"); err != nil || job == nil {
		t.Fatalf("lease: job %+v, err %v", job, err)
	}
	// The stream connects and drains well inside the lease's 500 ms TTL;
	// nothing else observes the sweep, so the stream's keepalive round
	// after the lease lapses is the first to see it.
	out, err := c.RunSweep(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 1 || out.Completed != 0 {
		t.Fatalf("outcome: %+v, want the one point poisoned", out)
	}
}

// TestCorrelationIDThreadsThrough: one correlation ID, minted at the client,
// must be greppable in the client's structured log, the worker's structured
// log, the server's structured log, the journal entry of a completed point,
// and the crash bundle of a point whose run panicked. The server's result
// lines must also carry each point's point_id.
func TestCorrelationIDThreadsThrough(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	crashDir := filepath.Join(dir, "crash")

	var serverMu sync.Mutex
	var serverLog bytes.Buffer
	opts := quickOpts()
	opts.PoisonAfter = 2
	opts.CrashDir = crashDir
	opts.Logger = slog.New(slog.NewJSONHandler(lockedWriter{&serverMu, &serverLog}, nil))
	base, _, stop := startServer(t, opts, journalPath, "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var clientLog, workerLog bytes.Buffer
	client := fastClient(base)
	client.Corr = NewCorrID()
	client.Log = slog.New(slog.NewTextHandler(&clientLog, nil))

	// Two workers whose run panics on the FFT point: each panic becomes a
	// crash bundle, and two distinct crashing workers poison the point.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var wgs []*sync.WaitGroup
	var logMu sync.Mutex
	for i := 0; i < 2; i++ {
		w := &Worker{
			Client: fastClient(base),
			ID:     fmt.Sprintf("w%d", i+1),
			OnPoint: func(_ string, p Point) {
				if p.App == "FFT" {
					panic("injected panic for correlation test")
				}
			},
			Log: slog.New(slog.NewTextHandler(lockedWriter{&logMu, &workerLog}, nil)),
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(wctx) }()
		wgs = append(wgs, &wg)
	}
	defer func() {
		for _, wg := range wgs {
			wg.Wait()
		}
	}()

	out, err := client.RunSweep(ctx, testSpec(), nil)
	wcancel()
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != 2 || len(out.Failures) != 1 {
		t.Fatalf("outcome: %+v", out)
	}

	corr := client.Corr
	grep := func(name string, data []byte) {
		t.Helper()
		if !bytes.Contains(data, []byte(corr)) {
			t.Errorf("%s does not contain correlation ID %s:\n%s", name, corr, data)
		}
	}
	logMu.Lock()
	grep("client log", clientLog.Bytes())
	grep("worker log", workerLog.Bytes())
	logMu.Unlock()

	stop() // no server line is written after this
	serverMu.Lock()
	grep("server log", serverLog.Bytes())
	resultIDs := map[float64]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(serverLog.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("server log line %q: %v", line, err)
		}
		if rec["msg"] != "result" || rec["corr"] != corr {
			continue
		}
		id, ok := rec["point_id"].(float64)
		if !ok {
			t.Errorf("result line without point_id: %s", line)
		}
		resultIDs[id] = true
	}
	serverMu.Unlock()
	// Two completed points and one poisoned point: a result line each.
	if len(resultIDs) != len(testSpec().Points) {
		t.Errorf("server result lines name point_ids %v, want one per point of %d",
			resultIDs, len(testSpec().Points))
	}

	journal, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	grep("journal", journal)

	bundles, err := filepath.Glob(filepath.Join(crashDir, "crash-*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no crash bundles written (err=%v)", err)
	}
	found := false
	for _, b := range bundles {
		data, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		var cr scalablebulk.CrashReport
		if err := json.Unmarshal(data, &cr); err != nil {
			t.Fatalf("bundle %s: %v", b, err)
		}
		if cr.Corr == corr {
			found = true
		}
	}
	if !found {
		t.Errorf("no crash bundle carries correlation ID %s", corr)
	}
}

// lockedWriter serializes two workers' slog handlers onto one buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestProgressAndFarmStatus: the aggregation endpoints report a finished
// sweep as terminal with consistent counts, and the farm view lists the
// sweep, its worker, and a recent-event tail.
func TestProgressAndFarmStatus(t *testing.T) {
	spec := testSpec()
	base, _, stop := startServer(t, quickOpts(), filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wg := startWorker(wctx, fastClient(base), "w1", nil)
	defer wg.Wait()

	c := fastClient(base)
	c.Corr = NewCorrID()
	out, err := c.RunSweep(ctx, spec, nil)
	wcancel()
	if err != nil || out.Completed != len(spec.Points) {
		t.Fatalf("sweep: %+v, %v", out, err)
	}

	p, err := c.Progress(ctx, spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Terminal || p.Done != len(spec.Points) || p.Total != len(spec.Points) {
		t.Errorf("progress: %+v", p)
	}
	if p.ETAMS != 0 {
		t.Errorf("terminal ETAMS = %d, want 0", p.ETAMS)
	}
	if p.Corr != c.Corr {
		t.Errorf("progress corr = %q, want %q", p.Corr, c.Corr)
	}
	if p.Attempts.Count != uint64(len(spec.Points)) {
		t.Errorf("attempts dist count = %d, want %d", p.Attempts.Count, len(spec.Points))
	}

	fs, err := c.FarmStatus(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Sweeps) != 1 || !fs.Sweeps[0].Terminal {
		t.Errorf("farm sweeps: %+v", fs.Sweeps)
	}
	if len(fs.Workers) == 0 {
		t.Error("farm status lists no workers")
	} else {
		var w1 *WorkerStatus
		for i := range fs.Workers {
			if fs.Workers[i].ID == "w1" {
				w1 = &fs.Workers[i]
			}
		}
		if w1 == nil || w1.Done != uint64(len(spec.Points)) {
			t.Errorf("worker w1 status: %+v", fs.Workers)
		}
	}
	if len(fs.Events) == 0 || fs.Seq == 0 {
		t.Errorf("farm status events/seq: %d events, seq %d", len(fs.Events), fs.Seq)
	}
}

// TestEventPointIDOnlyWhenNamed: an event carries point_id exactly when it
// names a point. Point 0's lease_granted has "point_id":0 in its JSON (the
// FarmStatus event tail) and in its log line; sweep_submitted has no
// point_id in either.
func TestEventPointIDOnlyWhenNamed(t *testing.T) {
	var logMu sync.Mutex
	var serverLog bytes.Buffer
	opts := quickOpts()
	opts.Logger = slog.New(slog.NewJSONHandler(lockedWriter{&logMu, &serverLog}, nil))
	base, _, stop := startServer(t, opts, "", "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c := fastClient(base)
	spec := testSpec()
	spec.Points = spec.Points[:1]
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	job, err := c.Lease(ctx, "w1")
	if err != nil || job == nil || job.PointID != 0 {
		t.Fatalf("lease: job %+v, err %v; want point 0", job, err)
	}

	resp, err := http.Get(base + "/api/v1/farm")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs struct{ Events []json.RawMessage }
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	tail := map[string]string{} // kind → the event's JSON
	for _, raw := range fs.Events {
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		tail[e.Kind] = string(raw)
	}

	logMu.Lock()
	lines := strings.Split(serverLog.String(), "\n")
	logMu.Unlock()
	logged := map[string]string{} // kind → the event's log line
	for _, l := range lines {
		var rec struct{ Msg string }
		if json.Unmarshal([]byte(l), &rec) == nil {
			logged[rec.Msg] = l
		}
	}

	for _, out := range []struct{ name, submitted, granted string }{
		{"FarmStatus", tail["sweep_submitted"], tail["lease_granted"]},
		{"log", logged["sweep_submitted"], logged["lease_granted"]},
	} {
		if !strings.Contains(out.granted, `"point_id":0`) {
			t.Errorf("%s: point 0's lease_granted has no point_id 0: %s", out.name, out.granted)
		}
		if out.submitted == "" || strings.Contains(out.submitted, "point_id") {
			t.Errorf("%s: sweep_submitted should be present without a point_id: %q", out.name, out.submitted)
		}
	}
}
