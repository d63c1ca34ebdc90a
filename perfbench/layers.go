package main

import (
	"io"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	sb "scalablebulk"
	"scalablebulk/internal/farm"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/stats"
)

// layers accumulates what a traced run learns beyond its spans. A nil
// *layers ignores every call, so untraced phases share the code path.
type layers struct {
	// Split runs (Build / Start+Step / Finish done by the benchmark).
	splitRuns int
	mallocs   uint64
	allocB    uint64
	firedAll  uint64
	fired     map[string]uint64 // per distinct point, for exact totals

	model modelAcc

	sessionUtil []float64

	http        *httpTimer
	farmSwept   int
	firstMS     []float64
	leasesPerPt []float64
}

func newLayers() *layers {
	return &layers{
		fired: map[string]uint64{},
		model: modelAcc{seen: map[string]bool{}},
		http:  &httpTimer{base: http.DefaultTransport, ms: map[string][]float64{}},
	}
}

func (l *layers) split(key string, fired, mallocs, allocB uint64) {
	if l == nil {
		return
	}
	l.splitRuns++
	l.mallocs += mallocs
	l.allocB += allocB
	l.firedAll += fired
	if _, ok := l.fired[key]; !ok {
		l.fired[key] = fired
	}
}

func (l *layers) observe(key string, res *sb.Result) {
	if l != nil {
		l.model.add(key, res)
	}
}

// sessionCPU records the Session's CPU utilization during SweepContext:
// process CPU over wall time × parallelism.
func (l *layers) sessionCPU(cpu, wall time.Duration, par int) {
	if l != nil && wall > 0 {
		l.sessionUtil = append(l.sessionUtil, cpu.Seconds()/(wall.Seconds()*float64(par)))
	}
}

func (l *layers) farmSweep(first time.Duration, prog *farm.SweepProgress) {
	if l == nil {
		return
	}
	l.firstMS = append(l.firstMS, float64(first.Nanoseconds())/1e6)
	l.farmSwept += prog.Total
	if prog.Done > 0 {
		l.leasesPerPt = append(l.leasesPerPt, prog.Attempts.Sum/float64(prog.Done))
	}
}

// httpClient is the HTTP client farm clients and workers use: the timing
// transport when traced, the farm default (nil) otherwise.
func (l *layers) httpClient() *http.Client {
	if l == nil {
		return nil
	}
	return &http.Client{Transport: l.http, Timeout: 30 * time.Second}
}

// modelAcc sums the simulated statistics of each distinct point once, so
// its totals are exact counts that depend only on the model and the seed.
type modelAcc struct {
	seen                           map[string]bool
	runs                           int
	cycles, committed, failures    uint64
	squashes                       uint64
	commitCyc, squashCyc, totalCyc uint64
	latSum, latN, dirsSum, dirsN   uint64
	classes                        [msg.NumClasses]uint64
	flitHops, ringResidency        uint64
}

func (m *modelAcc) add(key string, r *sb.Result) {
	if m.seen[key] {
		return
	}
	m.seen[key] = true
	m.runs++
	m.cycles += uint64(r.Cycles)
	m.committed += r.ChunksCommitted
	m.failures += r.Coll.CommitFailures
	m.squashes += uint64(r.Squashes)
	m.commitCyc += r.Breakdown.Commit
	m.squashCyc += r.Breakdown.Squash
	m.totalCyc += r.Breakdown.Total()
	for _, v := range r.Coll.CommitLat {
		m.latSum += uint64(v)
	}
	m.latN += uint64(len(r.Coll.CommitLat))
	for _, v := range r.Coll.DirsTotal {
		m.dirsSum += uint64(v)
	}
	m.dirsN += uint64(len(r.Coll.DirsTotal))
	cls := stats.TrafficClasses(r.Traffic.ByKind)
	for i, v := range cls {
		m.classes[i] += v
	}
	m.flitHops += r.Traffic.FlitHops
	m.ringResidency += r.RingResidency
}

// trafficNames are the metric suffixes of the five Figure 18 classes, in
// msg.Class order.
var trafficNames = [msg.NumClasses]string{"MemRd", "RemoteShRd", "RemoteDirtyRd", "LargeC", "SmallC"}

// httpTimer is the http.RoundTripper a traced farm run installs on its
// client and workers: it times every request by route, from sending it
// until its body is closed, and counts requests and result bytes.
type httpTimer struct {
	base http.RoundTripper

	mu          sync.Mutex
	ms          map[string][]float64
	requests    int
	resultBytes int64
	results     int
}

func (h *httpTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	route := farmRoute(req.Method, req.URL.Path)
	h.mu.Lock()
	h.requests++
	if route == "result" {
		h.results++
		h.resultBytes += req.ContentLength
	}
	h.mu.Unlock()
	t := time.Now()
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		h.record(route, t)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { h.record(route, t) }}
	return resp, nil
}

func (h *httpTimer) record(route string, t time.Time) {
	d := float64(time.Since(t).Nanoseconds()) / 1e6
	h.mu.Lock()
	h.ms[route] = append(h.ms[route], d)
	h.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// farmRoute names a farm API request by its route.
func farmRoute(method, path string) string {
	switch {
	case path == "/v1/sweep" && method == http.MethodPost:
		return "submit"
	case path == "/v1/sweep":
		return "status"
	case strings.HasPrefix(path, "/v1/"):
		return strings.TrimPrefix(path, "/v1/")
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/progress"):
		return "progress"
	}
	return "other"
}

// farmRoutes are the routes whose median time is a per-layer metric.
var farmRoutes = []string{"submit", "lease", "result", "events"}

// gcCPU reads the runtime's GC CPU time and its total busy (non-idle) CPU
// time, in seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1) - val(2)
}
