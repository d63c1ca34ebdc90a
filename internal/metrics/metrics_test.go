package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"scalablebulk/internal/mesh"
	"scalablebulk/internal/stats"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Counter("c").Add(3)
	if got := r.Counter("c").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(1.5)
	if got := r.Gauge("g").Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("h", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 500} {
		h.Observe(v)
	}
	counts, count, sum := h.Snapshot()
	if count != 4 || sum != 565 {
		t.Errorf("histogram count=%d sum=%v, want 4, 565", count, sum)
	}
	// 5 → [0,10); 10 and 50 → [10,100); 500 → overflow.
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("histogram counts = %v, want [1 2 1]", counts)
	}

	s := r.Snapshot()
	if s.Counters["c"] != 5 || s.Gauges["g"] != 1.5 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestObserveRun(t *testing.T) {
	r := NewRegistry()
	coll := stats.New()
	coll.CommitStarted(0, 1, 0, 10)
	coll.GroupFormed(0, 1, 0, 20)
	coll.CommitEnded(0, 1, 0, 60, true)
	coll.CommitLatency(50)
	coll.DirsPerCommit(3, 1)
	coll.SampleQueue(2)
	coll.Squashed(true)
	var traffic mesh.Stats
	traffic.Messages, traffic.Delivered, traffic.FlitHops = 10, 11, 120
	traffic.ByKind[0] = 10

	ObserveRun(r, coll, traffic, 17)
	ObserveRun(nil, coll, traffic, 17) // nil registry is a no-op

	s := r.Snapshot()
	if s.Counters["chunks_committed_total"] != 1 ||
		s.Counters["squash_conflict_total"] != 1 ||
		s.Counters["noc_flit_hops_total"] != 120 {
		t.Errorf("snapshot counters = %v", s.Counters)
	}
	if h := s.Histograms["commit_latency_cycles"]; h.Count != 1 || h.Sum != 50 {
		t.Errorf("latency histogram = %+v", h)
	}
	if g := s.Gauges["engine_ring_residency_items"]; g != 17 {
		t.Errorf("ring residency gauge = %v, want 17", g)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("points_done").Add(7)
	addr, closeFn, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("cannot listen: %v", err) // sandboxed environments
	}
	defer closeFn()

	for _, path := range []string{"/metrics", "/metrics.prom", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/metrics" {
			var s Snapshot
			if err := json.Unmarshal(body, &s); err != nil {
				t.Errorf("/metrics not JSON: %v", err)
			} else if s.Counters["points_done"] != 7 {
				t.Errorf("/metrics counters = %v", s.Counters)
			}
		}
	}
}
