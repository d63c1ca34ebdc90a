// Package metrics is the live-telemetry half of the observability layer: a
// small registry of counters, gauges and histograms that long soaks publish
// over HTTP (JSON, Prometheus text, pprof) so multi-hour runs can be watched and profiled
// without stopping them.
//
// The registry is safe for concurrent use — sweep workers update it while
// the HTTP handler snapshots it — unlike the single-threaded simulator
// internals it summarizes. Values are snapshotted from stats.Collector and
// mesh traffic counters between runs (see Observe*), never from inside the
// DES hot loop.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram buckets observations: bucket i counts values in
// [Bounds[i-1], Bounds[i]), with an implicit overflow bucket past the last
// bound. Count and Sum allow mean computation.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) && v == h.bounds[i] {
		i++ // bounds are exclusive upper edges
	}
	h.counts[i]++
}

// Snapshot returns the bucket counts (len(Bounds)+1 entries), total count
// and sum.
func (h *Histogram) Snapshot() (counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.count, h.sum
}

// Registry holds named instruments. Get-or-create accessors make wiring
// one-liners; names are reported in sorted order for determinism.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the existing bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot captures every instrument, with deterministic (sorted) key order
// inside each section.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range histograms {
		counts, count, sum := h.Snapshot()
		s.Histograms[k] = HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: counts, Count: count, Sum: sum,
		}
	}
	return s
}
