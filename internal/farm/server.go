package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/system"
)

// sweep is one submitted spec's live state: its lease table plus the
// append-only, completion-ordered result stream that SSE streams serve.
type sweep struct {
	id   string
	spec *SweepSpec
	// corr is the correlation ID minted by the submitting client (or by the
	// server when the client sent none); every lease, event, journal entry
	// and crash bundle of this sweep carries it.
	corr    string
	created time.Time
	hashes  []string // ConfigHash per point, derived once at submit
	table   *leaseTable
	results []PointResult
	// resolved dedupes terminal transitions: a point appears in results
	// exactly once even if duplicate results race.
	resolved []bool
}

// Server is the farm's job server. It owns the journal, the sweeps, and the
// lease scheduler; every handler works under one lock (simulation work
// happens in workers — the server only moves small records around). Live
// telemetry — the event hub, SSE streams, progress aggregation — reads the
// same state under the same lock.
type Server struct {
	opts Options
	rng  *rand.Rand
	hub  *eventHub
	log  *slog.Logger
	// instance names this Server in SSE result ids, so a resume point
	// issued by another process (whose result order may differ) replays
	// the whole stream instead of skipping results.
	instance string

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string // submission order, for fair deterministic leasing
	workers  map[string]*workerInfo
	leaseSeq uint64
	corrSeq  atomic.Uint64
	draining atomic.Bool
	// drained closes when draining is set and no leases remain live.
	drained chan struct{}
	// wake is closed and replaced whenever a held lease request should look
	// again: a sweep arrived, a failed run re-queued its point, or the
	// server is draining.
	wake chan struct{}
}

// maxHold caps how long an empty lease request waits on the server, well
// inside the client's 30 s request timeout.
const maxHold = 10 * time.Second

// NewServer builds a Server over opts (zero-value fields select defaults).
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed*0x9e3779b9 + 1)),
		hub:      newEventHub(opts.EventHistory),
		log:      opts.Logger,
		instance: strconv.FormatInt(time.Now().UnixNano(), 36),
		sweeps:   map[string]*sweep{},
		workers:  map[string]*workerInfo{},
		drained:  make(chan struct{}),
		wake:     make(chan struct{}),
	}
}

// emit publishes one event through the hub (seq + time stamped there) and
// the structured log. Like the event's JSON, the log line has a point_id
// only when the event names a point.
func (s *Server) emit(e Event) {
	e = s.hub.emit(e)
	if s.log == nil {
		return
	}
	attrs := []any{"seq", e.Seq, "sweep", e.Sweep, "worker", e.Worker, "lease", e.Lease}
	if e.Point != "" {
		attrs = append(attrs, "point_id", e.PointID)
	}
	s.log.Info(e.Kind, append(attrs, "point", e.Point, "corr", e.Corr, "detail", e.Detail)...)
}

// Handler returns the farm API mux:
//
//	POST /v1/sweep                     submit a spec (idempotent by spec ID)
//	POST /v1/lease                     acquire a point lease
//	POST /v1/heartbeat                 renew a lease (410 when the lease is gone)
//	POST /v1/result                    deliver a completed point (orphans accepted)
//	POST /v1/fail                      report a failed or crashed run
//	GET  /v1/healthz                   liveness
//	GET  /api/v1/sweeps/{id}/events    live SSE result stream (Last-Event-ID resume)
//	GET  /api/v1/sweeps/{id}/progress  per-sweep progress aggregation
//	GET  /api/v1/farm                  whole-farm status (sbtop's endpoint)
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSubmit)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/result", s.handleResult)
	mux.HandleFunc("POST /v1/fail", s.handleFail)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/progress", s.handleSweepProgress)
	mux.HandleFunc("GET /api/v1/farm", s.handleFarmStatus)
	return mux
}

func (s *Server) count(name string) {
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter(name).Add(1)
	}
}

func pointLabel(p Point) string {
	return fmt.Sprintf("%s/%s/%d", p.App, p.Protocol, p.Cores)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleSubmit registers a sweep (idempotently — an identical spec attaches
// to the live sweep) and immediately resolves every point the journal
// already holds a verified result for. The submission's correlation ID
// arrives in the X-Correlation-ID header; a client that sends none gets one
// minted here, returned in the response header either way.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A field this server does not know is a knob it would silently drop,
	// running a different sweep than the client asked for: refuse it.
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	id := spec.ID()
	corr := r.Header.Get(CorrHeader)

	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[id]; ok {
		if corr != "" && corr != sw.corr {
			// A different client attached to the live sweep: note it, but
			// the sweep keeps the first submitter's ID.
			s.emit(Event{Kind: "sweep_attached", Sweep: id, Corr: sw.corr,
				Detail: "resubmitted with corr=" + corr})
		}
		restored := 0
		for _, pr := range sw.results {
			if pr.Restored {
				restored++
			}
		}
		w.Header().Set(CorrHeader, sw.corr)
		writeJSON(w, SubmitResponse{
			SweepID: id, Points: len(sw.spec.Points), Restored: restored, Existing: true,
		})
		return
	}

	if corr == "" {
		corr = fmt.Sprintf("c-srv-%s-%d", id, s.corrSeq.Add(1))
	}
	sw := &sweep{
		id:       id,
		spec:     &spec,
		corr:     corr,
		created:  time.Now(),
		table:    newLeaseTable(spec.Points, s.opts, time.Now, s.rng),
		resolved: make([]bool, len(spec.Points)),
	}
	restored := 0
	var units system.WarmUnits
	for i, p := range spec.Points {
		// Hash the resolved config, as workers and the Session do: a
		// workload-source label sets cfg.Workload during resolution.
		// Validate has already resolved every point.
		prof, cfg, err := spec.Resolve(p)
		h := scalablebulk.ConfigHash(cfg)
		sw.hashes = append(sw.hashes, h)
		wk, ok := system.WarmKeyOf(prof, cfg)
		sw.table.entries[i].unit = units.Of(wk, ok && err == nil)
		if s.opts.Journal == nil {
			continue
		}
		res, ok := s.opts.Journal.Lookup(p, h)
		if !ok {
			continue
		}
		data, err := scalablebulk.MarshalResult(res)
		if err != nil {
			continue
		}
		sw.table.markDone(i)
		sw.resolved[i] = true
		sw.results = append(sw.results, PointResult{
			PointID: i, Point: p, Status: StatusDone, ConfigHash: h,
			FingerprintSHA: scalablebulk.FingerprintSHA(res),
			Result:         data, Restored: true,
		})
		restored++
	}
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	s.wakeLocked()
	s.count("farm_sweeps_submitted")
	s.emit(Event{Kind: "sweep_submitted", Sweep: id, Corr: corr,
		Detail: fmt.Sprintf("points=%d restored=%d", len(spec.Points), restored)})
	// Every journal-restored point gets its own result event so the
	// structured log and sbtop's event tail show restores like any other
	// completion.
	for _, pr := range sw.results {
		s.emit(Event{Kind: "result", Sweep: id, Corr: corr,
			PointID: pr.PointID, Point: pointLabel(pr.Point), Detail: "restored"})
	}
	w.Header().Set(CorrHeader, corr)
	writeJSON(w, SubmitResponse{SweepID: id, Points: len(spec.Points), Restored: restored})
}

// handleSweepProgress serves the per-sweep aggregation on its own.
func (s *Server) handleSweepProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		http.Error(w, "unknown sweep "+id, http.StatusNotFound)
		return
	}
	s.expireLocked(sw)
	writeJSON(w, s.progressLocked(sw))
}

// handleFarmStatus serves the whole-farm view (sbtop's endpoint).
// ?events=N bounds the event tail (default 32, 0 disables).
func (s *Server) handleFarmStatus(w http.ResponseWriter, r *http.Request) {
	tail := 32
	if v := r.URL.Query().Get("events"); v != "" {
		tail, _ = strconv.Atoi(v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		s.expireLocked(s.sweeps[id])
	}
	writeJSON(w, s.farmStatusLocked(tail))
}

// expireLocked runs the lease-expiry sweep for one sweep's table and
// records the resulting terminal transitions. Called with s.mu held, from
// every handler that observes time passing — the server needs no timer
// goroutine and tests control the clock completely.
func (s *Server) expireLocked(sw *sweep) {
	dead := sw.table.expire()
	for _, la := range dead {
		s.count("farm_leases_expired")
		s.emit(Event{Kind: "lease_expired", Sweep: sw.id, Corr: sw.corr,
			Worker: la.l.worker, Lease: la.l.id,
			PointID: la.entry.id, Point: pointLabel(la.entry.point)})
	}
	s.harvestTerminal(sw)
	s.checkDrained()
}

// harvestTerminal appends newly terminal (failed/poisoned) points to the
// result stream exactly once.
func (s *Server) harvestTerminal(sw *sweep) {
	for _, e := range sw.table.entries {
		if sw.resolved[e.id] {
			continue
		}
		var status string
		switch e.state {
		case stateFailed:
			status = StatusFailed
			s.count("farm_points_failed")
		case statePoisoned:
			status = StatusPoisoned
			s.count("farm_points_poisoned")
			s.emit(Event{Kind: "point_poisoned", Sweep: sw.id, Corr: sw.corr,
				PointID: e.id, Point: pointLabel(e.point), Detail: e.lastErr})
		default:
			continue
		}
		sw.resolved[e.id] = true
		sw.results = append(sw.results, PointResult{
			PointID: e.id, Point: e.point, Status: status,
			ConfigHash: sw.hashes[e.id], Error: e.lastErr,
		})
		s.emit(Event{Kind: "result", Sweep: sw.id, Corr: sw.corr,
			PointID: e.id, Point: pointLabel(e.point), Detail: status})
	}
}

// handleLease grants an eligible point (see grantLocked). While draining it
// grants nothing and tells workers so.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "worker id required", http.StatusBadRequest)
		return
	}
	if resp, ok := s.awaitLease(r.Context(), &req); ok {
		writeJSON(w, resp)
	}
}

// awaitLease answers a lease request. With no work to grant it holds the
// request, lock released, until a waker closes s.wake, the earliest
// re-queue backoff window opens, or the hold bound passes: LeaseTTL/10, at
// most maxHold. Expiry stays lazy; the bound is what catches a lease that
// lapses during the hold, and an empty answer tells the worker to ask
// again at once. ok is false when the client went away mid-hold.
func (s *Server) awaitLease(ctx context.Context, req *leaseRequest) (resp leaseResponse, ok bool) {
	deadline := time.Now().Add(min(s.opts.LeaseTTL/10, maxHold))
	s.mu.Lock()
	defer s.mu.Unlock()
	// Record the worker before holding: a worker is visible in FarmStatus
	// from its first request on.
	s.touchWorker(req.Worker)
	for {
		if s.draining.Load() {
			return leaseResponse{Draining: true}, true
		}
		job, next := s.grantLocked(req)
		if job != nil {
			return leaseResponse{Job: job}, true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return leaseResponse{}, true
		}
		if !next.IsZero() {
			wait = min(wait, time.Until(next))
		}
		wake := s.wake
		s.mu.Unlock()
		timer := time.NewTimer(wait)
		select {
		case <-wake:
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		s.mu.Lock()
		if ctx.Err() != nil {
			return leaseResponse{}, false
		}
	}
}

// grantLocked leases a point of the first sweep, in submission order, that
// has one eligible; leaseTable.acquire picks which. With nothing eligible it
// returns the earliest time a pending point leaves its backoff window (zero
// when none is pending). The spec is left out for sweeps the worker listed
// as held. Caller holds s.mu.
func (s *Server) grantLocked(req *leaseRequest) (*Job, time.Time) {
	var next time.Time
	for _, id := range s.order {
		sw := s.sweeps[id]
		s.expireLocked(sw)
		e, l := sw.table.acquire(req.Worker, fmt.Sprintf("l-%d", s.leaseSeq+1))
		if e == nil {
			if t := sw.table.nextEligible(); !t.IsZero() && (next.IsZero() || t.Before(next)) {
				next = t
			}
			continue
		}
		s.leaseSeq++
		s.count("farm_leases_granted")
		s.emit(Event{Kind: "lease_granted", Sweep: sw.id, Corr: sw.corr,
			Worker: req.Worker, Lease: l.id, PointID: e.id,
			Point: pointLabel(e.point), Detail: fmt.Sprintf("attempt=%d", e.attempt)})
		job := &Job{
			SweepID: sw.id, LeaseID: l.id, PointID: e.id, Point: e.point,
			ConfigHash: sw.hashes[e.id], Corr: sw.corr,
			TTLMS: s.opts.LeaseTTL.Milliseconds(), Attempt: e.attempt,
		}
		if !slices.Contains(req.HaveSpecs, sw.id) {
			job.Spec = sw.spec
		}
		return job, time.Time{}
	}
	return nil, next
}

// handleHeartbeat renews a lease; 410 Gone tells the worker the lease was
// lost (expired and re-queued, or the point resolved elsewhere) and the run
// should be abandoned silently.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchWorker(req.Worker)
	sw, ok := s.sweeps[req.SweepID]
	if !ok {
		http.Error(w, "unknown sweep", http.StatusGone)
		return
	}
	s.expireLocked(sw)
	if !sw.table.heartbeat(req.LeaseID) {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	s.count("farm_heartbeats")
	writeJSON(w, struct{}{})
}

// handleResult accepts a completed point. The server never trusts the
// worker's digest alone: it restores the result and re-derives the
// fingerprint before journaling. Nor does it trust the labels: the result
// must name the point it is posted for, and that point must be the spec's
// point at PointID — a ConfigHash alone does not tell apart points that
// differ only in their application. Orphan results — unknown lease or even
// unknown sweep, the signature of a server restart — are verified and
// journaled too, so no completed work is ever lost.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !readJSON(w, r, &req) {
		return
	}
	res, err := scalablebulk.UnmarshalResult(req.Result)
	if err != nil {
		http.Error(w, "undecodable result: "+err.Error(), http.StatusBadRequest)
		return
	}
	sha := scalablebulk.FingerprintSHA(res)
	if sha != req.FingerprintSHA {
		s.count("farm_results_divergent")
		http.Error(w, "fingerprint mismatch: result does not hash to the digest shipped with it",
			http.StatusConflict)
		return
	}
	if named := (Point{App: res.App, Protocol: res.Protocol, Cores: res.Cores}); named != req.Point {
		http.Error(w, fmt.Sprintf("result is for %s, posted as %s", pointLabel(named), pointLabel(req.Point)),
			http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wi := s.touchWorker(req.Worker)
	sw, ok := s.sweeps[req.SweepID]
	if !ok {
		// Orphan beyond the sweep itself: the server restarted and the
		// sweep was not resubmitted yet. Journal the verified result so
		// the resubmission restores it.
		s.journalLocked(&req, res, req.Corr)
		s.count("farm_results_orphaned")
		s.emit(Event{Kind: "result_orphaned", Sweep: req.SweepID, Corr: req.Corr,
			Worker: req.Worker, PointID: req.PointID, Point: pointLabel(req.Point)})
		writeJSON(w, struct{}{})
		return
	}
	s.expireLocked(sw)
	if req.PointID < 0 || req.PointID >= len(sw.spec.Points) {
		http.Error(w, "point id out of range", http.StatusBadRequest)
		return
	}
	if p := sw.spec.Points[req.PointID]; p != req.Point {
		http.Error(w, fmt.Sprintf("point %d is %s, posted as %s", req.PointID, pointLabel(p), pointLabel(req.Point)),
			http.StatusBadRequest)
		return
	}
	if sw.hashes[req.PointID] != req.ConfigHash {
		s.count("farm_results_divergent")
		http.Error(w, "config hash mismatch: worker and server derive different configs (version skew?)",
			http.StatusConflict)
		return
	}
	if sw.resolved[req.PointID] {
		// Duplicate delivery (retried RPC, or a re-granted lease racing
		// the original holder). Equal fingerprints are idempotent;
		// divergent fingerprints mean nondeterminism and must scream.
		prev := s.findResult(sw, req.PointID)
		if prev != nil && prev.FingerprintSHA != sha {
			s.count("farm_results_divergent")
			http.Error(w, "divergent duplicate: same point, different fingerprint",
				http.StatusConflict)
			return
		}
		writeJSON(w, struct{}{})
		return
	}

	s.journalLocked(&req, res, sw.corr)
	sw.table.complete(req.PointID, req.LeaseID)
	sw.resolved[req.PointID] = true
	sw.results = append(sw.results, PointResult{
		PointID: req.PointID, Point: req.Point, Status: StatusDone,
		ConfigHash: req.ConfigHash, FingerprintSHA: sha,
		Result: req.Result,
	})
	if wi != nil {
		wi.done++
	}
	s.count("farm_results_ok")
	s.emit(Event{Kind: "result", Sweep: sw.id, Corr: sw.corr, Worker: req.Worker,
		Lease: req.LeaseID, PointID: req.PointID, Point: pointLabel(req.Point),
		Detail: StatusDone})
	s.checkDrained()
	writeJSON(w, struct{}{})
}

func (s *Server) findResult(sw *sweep, pointID int) *PointResult {
	for i := range sw.results {
		if sw.results[i].PointID == pointID {
			return &sw.results[i]
		}
	}
	return nil
}

// journalLocked records a verified result; journaling failures are logged
// but do not fail the delivery (the result is still live in memory).
func (s *Server) journalLocked(req *resultRequest, res *scalablebulk.Result, corr string) {
	if s.opts.Journal == nil {
		return
	}
	if _, ok := s.opts.Journal.Lookup(req.Point, req.ConfigHash); ok {
		return // already journaled (duplicate or cross-sweep dedup)
	}
	wall := time.Duration(req.WallMS * float64(time.Millisecond))
	if err := s.opts.Journal.Record(req.Point, req.ConfigHash, res, wall, corr); err != nil {
		s.emit(Event{Kind: "journal_error", PointID: req.PointID, Point: pointLabel(req.Point),
			Corr: corr, Detail: err.Error()})
	}
}

// handleFail records a failed or crashed run under a live lease. Crash
// reports become crash bundles under CrashDir; a crash charges the poison
// counter, an ordinary error re-queues with backoff.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Crash != nil && s.opts.CrashDir != "" {
		if req.Crash.Corr == "" {
			req.Crash.Corr = req.Corr
		}
		if _, err := scalablebulk.WriteCrashBundle(s.opts.CrashDir, req.Crash); err != nil {
			s.emit(Event{Kind: "crash_bundle_error", Corr: req.Corr, Detail: err.Error()})
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	wi := s.touchWorker(req.Worker)
	sw, ok := s.sweeps[req.SweepID]
	if !ok {
		writeJSON(w, struct{}{}) // orphan failure: the re-submitted sweep re-runs the point anyway
		return
	}
	s.expireLocked(sw)
	if sw.table.fail(req.LeaseID, req.Crash != nil, req.Error) {
		s.wakeLocked()
		s.count("farm_point_failures")
		if wi != nil {
			wi.failed++
			if req.Crash != nil {
				wi.crashed++
			}
		}
		s.emit(Event{Kind: "run_failed", Sweep: sw.id, Corr: sw.corr, Worker: req.Worker,
			Lease: req.LeaseID, PointID: req.PointID, Point: pointLabel(req.Point),
			Detail: req.Error})
	}
	s.harvestTerminal(sw)
	s.checkDrained()
	writeJSON(w, struct{}{})
}

// Drain flips the server into shutdown mode: no new leases are granted, and
// the returned channel closes once no lease remains live (every in-flight
// point resolved or expired). Callers bound the wait themselves.
func (s *Server) Drain() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining.Swap(true) {
		s.emit(Event{Kind: "draining"})
		s.wakeLocked()
	}
	s.checkDrained()
	return s.drained
}

// wakeLocked releases every held lease request to look again. Caller holds
// s.mu.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// checkDrained closes the drained channel when draining with no live
// leases. Called with s.mu held.
func (s *Server) checkDrained() {
	if !s.draining.Load() {
		return
	}
	for _, sw := range s.sweeps {
		if len(sw.table.leases) > 0 {
			return
		}
	}
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}
