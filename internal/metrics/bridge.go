package metrics

import (
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
)

// CommitLatencyBounds buckets commit latencies like Figure 13's x-axis
// (cycles).
var CommitLatencyBounds = []float64{50, 100, 200, 400, 800, 1600, 3200, 6400}

// GroupSizeBounds buckets directories-per-commit like Figures 11/12.
var GroupSizeBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// QueueDepthBounds buckets sampled queued-chunk counts (Figures 16/17).
var QueueDepthBounds = []float64{1, 2, 4, 8, 16, 32}

// ObserveRun folds one finished run's collector and traffic counters, and
// the event calendar's retained ring capacity, into the registry. It is
// called between runs (never on the DES hot loop), so a live /metrics scrape
// during a soak sees per-point aggregates accumulate.
func ObserveRun(r *Registry, coll *stats.Collector, traffic mesh.Stats, ringResidency uint64) {
	if r == nil {
		return
	}
	r.Gauge("engine_ring_residency_items").Set(float64(ringResidency))
	r.Counter("runs_total").Add(1)
	r.Counter("chunks_committed_total").Add(coll.ChunksCommitted)
	r.Counter("commit_failures_total").Add(coll.CommitFailures)
	r.Counter("read_nacks_total").Add(coll.ReadNacks)
	r.Counter("squash_conflict_total").Add(coll.SquashTrueConflict)
	r.Counter("squash_aliasing_total").Add(coll.SquashAliasing)

	r.Counter("noc_messages_total").Add(traffic.Messages)
	r.Counter("noc_delivered_total").Add(traffic.Delivered)
	r.Counter("noc_flit_hops_total").Add(traffic.FlitHops)
	for k := 0; k < msg.NumKinds; k++ {
		if traffic.ByKind[k] > 0 {
			r.Counter("noc_sent_" + msg.Kind(k).String() + "_total").Add(traffic.ByKind[k])
		}
	}

	lat := r.Histogram("commit_latency_cycles", CommitLatencyBounds)
	for _, v := range coll.CommitLat {
		lat.Observe(float64(v))
	}
	dirs := r.Histogram("group_size_dirs", GroupSizeBounds)
	for _, v := range coll.DirsTotal {
		dirs.Observe(float64(v))
	}
	queue := r.Histogram("queue_depth_chunks", QueueDepthBounds)
	for _, v := range coll.QueueSamples {
		queue.Observe(float64(v))
	}
}
