package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestSSEResumeAfterStreamKill kills an SSE stream mid-sweep, lets the
// sweep finish while disconnected, and reconnects with Last-Event-ID into a
// deliberately tiny event ring — forcing the snapshot path — asserting every
// result lands exactly once and fingerprints match the in-process reference.
func TestSSEResumeAfterStreamKill(t *testing.T) {
	spec := testSpec()
	want := inProcessFingerprints(t, spec)

	opts := quickOpts()
	opts.EventHistory = 2 // force Last-Event-ID past the ring on reconnect
	opts.SSEPing = 100 * time.Millisecond
	base, _, stop := startServer(t, opts, filepath.Join(t.TempDir(), "farm.jsonl"), "")
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	c := fastClient(base)
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Connect before any worker runs so the first result arrives live.
	connect := func(after uint64) *http.Response {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/api/v1/sweeps/"+sub.SweepID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if after > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", after))
		}
		resp, err := (&http.Client{}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("SSE connect: %d", resp.StatusCode)
		}
		return resp
	}
	resp := connect(0)

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
		if _, dup := got[p]; dup {
			t.Errorf("point %s/%s/%d applied twice", p.App, p.Protocol, p.Cores)
		}
		got[p] = scalablebulk.FingerprintSHA(res)
	}

	// Read until the first result, then kill the stream mid-sweep.
	var lastID uint64
	rd := newSSEReader(bufio.NewReader(resp.Body), nil)
	for {
		ev, err := rd.next()
		if err != nil {
			t.Fatalf("first stream died before a result: %v", err)
		}
		if ev.ID != "" {
			fmt.Sscanf(ev.ID, "%d", &lastID)
		}
		if ev.Type == sseResult {
			var pr PointResult
			if err := json.Unmarshal(ev.Data, &pr); err != nil {
				t.Fatal(err)
			}
			if err := run.apply(pr); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	resp.Body.Close() // kill the stream

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

	// Reconnect with Last-Event-ID: the ring has moved past it, so the
	// server must answer with a snapshot rather than a pretend-contiguous
	// replay; replayed results dedupe through the same apply sink.
	resp2 := connect(lastID)
	defer resp2.Body.Close()
	sawSnapshot := false
	rd2 := newSSEReader(bufio.NewReader(resp2.Body), nil)
	for {
		ev, err := rd2.next()
		if err != nil {
			t.Fatalf("resume stream: %v", err)
		}
		switch ev.Type {
		case sseSnapshot:
			sawSnapshot = true
			var st SweepStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil {
				t.Fatal(err)
			}
			for _, pr := range st.Results {
				if err := run.apply(pr); err != nil {
					t.Fatal(err)
				}
			}
		case sseResult:
			var pr PointResult
			if err := json.Unmarshal(ev.Data, &pr); err != nil {
				t.Fatal(err)
			}
			if err := run.apply(pr); err != nil {
				t.Fatal(err)
			}
		case sseEnd:
			goto done
		}
	}
done:
	if !sawSnapshot {
		t.Error("resume past the ring did not produce a snapshot event")
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

// TestEventHubSince: since replays what the ring still holds and reports a
// gap when it cannot — a resume point evicted from the ring, or one above
// the newest seq (left over from an earlier server run).
func TestEventHubSince(t *testing.T) {
	h := newEventHub(2)
	if evs, gapped := h.since(0); len(evs) != 0 || gapped {
		t.Errorf("empty hub: since(0) = %d events, gapped=%v", len(evs), gapped)
	}
	for _, k := range []string{"a", "b", "c"} {
		h.emit(Event{Kind: k})
	}
	for _, c := range []struct {
		after  uint64
		n      int
		gapped bool
	}{
		{0, 2, true},   // seq 1 evicted
		{1, 2, false},  // replay 2, 3
		{2, 1, false},  // replay 3
		{3, 0, false},  // caught up
		{4, 0, true},   // from an earlier run
		{500, 0, true}, // from an earlier run
	} {
		evs, gapped := h.since(c.after)
		if len(evs) != c.n || gapped != c.gapped {
			t.Errorf("since(%d) = %d events, gapped=%v; want %d, %v",
				c.after, len(evs), gapped, c.n, c.gapped)
		}
	}
}

// TestSSEFutureResumeIDGetsSnapshot: a Last-Event-ID above every seq this
// server issued (a client reconnecting after a server restart) must get a
// snapshot holding every result, not an empty replay followed by "end".
func TestSSEFutureResumeIDGetsSnapshot(t *testing.T) {
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
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSweep(ctx, spec, nil); err != nil {
		t.Fatal(err)
	}
	wcancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/sweeps/"+sub.SweepID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "9999")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	results := -1
	rd := newSSEReader(bufio.NewReader(resp.Body), nil)
	for {
		ev, err := rd.next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if ev.Type == sseSnapshot {
			var st SweepStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil {
				t.Fatal(err)
			}
			results = len(st.Results)
		}
		if ev.Type == sseEnd {
			break
		}
	}
	if results != len(spec.Points) {
		t.Errorf("snapshot before end holds %d results, want %d (-1: no snapshot)",
			results, len(spec.Points))
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
