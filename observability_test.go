package scalablebulk

import (
	"context"
	"sync"
	"testing"
	"time"

	"scalablebulk/internal/metrics"
)

// TestSweepProgressAndMetrics drives a small sweep with the heartbeat and a
// metrics registry attached: the final heartbeat must report completion with
// a fingerprint, and the registry must hold the folded-in run counters plus
// the live sweep gauges.
func TestSweepProgressAndMetrics(t *testing.T) {
	s := NewSession(1, 1, nil)
	s.ProgressInterval = time.Millisecond
	var mu sync.Mutex
	var beats []SweepProgress
	s.OnProgress = func(p SweepProgress) {
		mu.Lock()
		beats = append(beats, p)
		mu.Unlock()
	}
	reg := metrics.NewRegistry()
	s.Metrics = reg

	points := []Point{
		{App: "FFT", Protocol: ProtoScalableBulk, Cores: 4},
		{App: "Radix", Protocol: ProtoScalableBulk, Cores: 4},
	}
	if err := s.SweepContext(context.Background(), points, 2).Err(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(beats) == 0 {
		t.Fatal("no heartbeats delivered")
	}
	last := beats[len(beats)-1]
	if !last.Final {
		t.Fatalf("last heartbeat not final: %+v", last)
	}
	if last.Done != 2 || last.Total != 2 || last.Failed != 0 {
		t.Fatalf("final heartbeat = %+v, want done=2 total=2 failed=0", last)
	}
	if last.LastFingerprint == "" || last.LastPoint.App == "" {
		t.Fatalf("final heartbeat lacks last-point identity: %+v", last)
	}
	if last.Elapsed <= 0 {
		t.Fatalf("final heartbeat has no elapsed time: %+v", last)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["runs_total"]; got != 2 {
		t.Fatalf("runs_total = %d, want 2", got)
	}
	if got := snap.Counters["chunks_committed_total"]; got != 2*4*16 {
		t.Fatalf("chunks_committed_total = %d, want %d", got, 2*4*16)
	}
	if got := snap.Gauges["sweep_done"]; got != 2 {
		t.Fatalf("sweep_done gauge = %v, want 2", got)
	}
	if snap.Histograms["commit_latency_cycles"].Count == 0 {
		t.Fatal("commit latency histogram empty after two runs")
	}
}

// TestSweepCanceledAfterLastPointCompletes cancels the sweep's context from
// the final heartbeat, after every point has resolved: the sweep completed,
// so it must not report an abort.
func TestSweepCanceledAfterLastPointCompletes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSession(1, 1, nil)
	s.OnProgress = func(p SweepProgress) {
		if p.Final {
			cancel()
		}
	}
	points := []Point{
		{App: "FFT", Protocol: ProtoScalableBulk, Cores: 4},
		{App: "FFT", Protocol: ProtoTCC, Cores: 4},
	}
	out := s.SweepContext(ctx, points, 2)
	if ctx.Err() == nil {
		t.Fatal("final heartbeat did not cancel the context")
	}
	if out.Aborted || out.Completed != len(points) || out.Err() != nil {
		t.Fatalf("aborted=%t completed=%d err=%v, want a completed sweep",
			out.Aborted, out.Completed, out.Err())
	}
}
