package farm

import (
	"encoding/json"

	scalablebulk "scalablebulk"
)

// Point aliases the root sweep point so farm wire types and Session-side
// thin clients speak the same identity.
type Point = scalablebulk.Point

// SweepSpec is the root sweep description; the farm ships it as JSON.
type SweepSpec = scalablebulk.SweepSpec

// Scaling names for SweepSpec.Scaling.
const (
	ScalingStrong = scalablebulk.ScalingStrong
	ScalingFixed  = scalablebulk.ScalingFixed
)

// SubmitResponse answers POST /v1/sweep.
type SubmitResponse struct {
	SweepID string `json:"sweep_id"`
	// Points is the sweep's total point count.
	Points int `json:"points"`
	// Restored counts points satisfied immediately from the server's
	// journal (dedup across sweeps and across server restarts).
	Restored int `json:"restored"`
	// Existing is true when an identical spec was already submitted; the
	// resubmission attached to the live sweep instead of starting over.
	Existing bool `json:"existing,omitempty"`
}

// Job is one granted lease: the point to run, the spec it belongs to, the
// server's config hash for version-skew detection, and the lease terms.
type Job struct {
	SweepID string `json:"sweep_id"`
	LeaseID string `json:"lease_id"`
	PointID int    `json:"point_id"` // index into the spec's Points
	Point   Point  `json:"point"`
	// Spec is the sweep's spec. The server leaves it out when the lease
	// request listed SweepID among the specs the worker already holds.
	Spec *SweepSpec `json:"spec,omitempty"`
	// Corr is the sweep's correlation ID (minted by the submitting client);
	// the worker threads it through its logs, the result/fail reports and
	// any crash bundle, so one grep follows the point across processes.
	Corr string `json:"corr,omitempty"`
	// ConfigHash is the server's hash of the point's config. A worker
	// whose binary derives a different hash must refuse the job — running
	// it would journal a result under a key the server can never match.
	ConfigHash string `json:"config_hash"`
	// TTLMS is the lease duration; the worker heartbeats well inside it.
	TTLMS int64 `json:"ttl_ms"`
	// Attempt is 1 for the first lease of a point, incrementing on every
	// re-queue after an expiry or failure.
	Attempt int `json:"attempt"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	// HaveSpecs lists the sweep IDs whose spec the worker already holds;
	// a Job for one of them comes without its Spec. An older server ignores
	// the field and always sends the spec.
	HaveSpecs []string `json:"have_specs,omitempty"`
}

type leaseResponse struct {
	// Job is nil when no work is available.
	Job *Job `json:"job,omitempty"`
	// Draining tells workers the server is shutting down: stop asking.
	Draining bool `json:"draining,omitempty"`
}

type heartbeatRequest struct {
	SweepID string `json:"sweep_id"`
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

type resultRequest struct {
	SweepID    string `json:"sweep_id"`
	LeaseID    string `json:"lease_id,omitempty"` // empty for orphan results
	Worker     string `json:"worker"`
	Corr       string `json:"corr,omitempty"`
	PointID    int    `json:"point_id"`
	Point      Point  `json:"point"`
	ConfigHash string `json:"config_hash"`
	// FingerprintSHA is the worker's digest of the result fingerprint; the
	// server re-derives it from Result and refuses a mismatch.
	FingerprintSHA string          `json:"fingerprint_sha256"`
	Result         json.RawMessage `json:"result"` // MarshalResult bytes
	WallMS         float64         `json:"wall_ms,omitempty"`
}

type failRequest struct {
	SweepID string `json:"sweep_id"`
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Corr    string `json:"corr,omitempty"`
	PointID int    `json:"point_id"`
	Point   Point  `json:"point"`
	Error   string `json:"error"`
	// Crash carries the crash bundle when the run panicked; a crashing
	// point counts toward poisoning exactly like a lease-expiry death.
	Crash *scalablebulk.CrashReport `json:"crash,omitempty"`
}

// Point terminal states, as PointResult.Status.
const (
	StatusDone     = "done"
	StatusFailed   = "failed"   // exhausted the retry budget with run errors
	StatusPoisoned = "poisoned" // killed PoisonAfter distinct workers
)

// PointResult is one terminal point in a sweep's completion-ordered result
// stream.
type PointResult struct {
	PointID        int             `json:"point_id"`
	Point          Point           `json:"point"`
	Status         string          `json:"status"`
	ConfigHash     string          `json:"config_hash"`
	FingerprintSHA string          `json:"fingerprint_sha256,omitempty"`
	Result         json.RawMessage `json:"result,omitempty"`
	Error          string          `json:"error,omitempty"`
	// Restored marks a point satisfied from the journal without a run.
	Restored bool `json:"restored,omitempty"`
}

// Dist is a small self-describing distribution: fixed histogram buckets
// (Counts has len(Bounds)+1 entries, the last an overflow bucket) plus exact
// count/sum/min/max, computed server-side from live state.
type Dist struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// SweepProgress is the server-side per-sweep aggregation exposed over
// GET /api/v1/sweeps/{id}/progress and in FarmStatus, and sent as the SSE
// "end" event's data: state counts, throughput, live lease ages, the
// requeue picture and an ETA.
type SweepProgress struct {
	SweepID  string `json:"sweep_id"`
	Corr     string `json:"corr,omitempty"`
	Total    int    `json:"total"`
	Queued   int    `json:"queued"`
	Leased   int    `json:"leased"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Poisoned int    `json:"poisoned"`
	// Restored counts Done points satisfied from the journal without a run.
	Restored int `json:"restored"`
	// PointsPerSec is fresh (non-restored) completions over the sweep's
	// lifetime; ETAMS extrapolates the remaining points at that rate
	// (-1 while the rate is still unknown).
	PointsPerSec float64 `json:"points_per_sec"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	ETAMS        int64   `json:"eta_ms"`
	// Requeues is the total number of re-queues (grants beyond each point's
	// first) so far; Attempts distributes lease grants across points.
	Requeues int  `json:"requeues"`
	Attempts Dist `json:"attempts"`
	// LeaseAgeMS distributes the ages of the currently live leases.
	LeaseAgeMS Dist `json:"lease_age_ms"`
	// Workers counts distinct workers currently holding leases.
	Workers  int  `json:"workers"`
	Terminal bool `json:"terminal"`
}

// WorkerStatus is one worker's row in FarmStatus, aggregated from every
// request the server has seen it make.
type WorkerStatus struct {
	ID string `json:"id"`
	// IdleMS is how long ago the worker last contacted the server.
	IdleMS int64 `json:"idle_ms"`
	// Leases counts the live leases it holds right now.
	Leases  int    `json:"leases"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`
	Crashed uint64 `json:"crashed"`
}

// LeaseStatus is one live lease in FarmStatus.
type LeaseStatus struct {
	Sweep   string `json:"sweep"`
	Lease   string `json:"lease"`
	Worker  string `json:"worker"`
	PointID int    `json:"point_id"`
	Point   string `json:"point"`
	Corr    string `json:"corr,omitempty"`
	Attempt int    `json:"attempt"`
	AgeMS   int64  `json:"age_ms"`
	TTLMS   int64  `json:"ttl_ms"`
}

// PoisonStatus is one quarantined point in FarmStatus.
type PoisonStatus struct {
	Sweep   string `json:"sweep"`
	PointID int    `json:"point_id"`
	Point   string `json:"point"`
	Corr    string `json:"corr,omitempty"`
	Error   string `json:"error,omitempty"`
}

// FarmStatus answers GET /api/v1/farm: the whole server at a glance —
// per-sweep progress, the worker pool, live leases, the poison list and an
// event tail. This is sbtop's wire format.
type FarmStatus struct {
	Now      string          `json:"now"`
	Seq      uint64          `json:"seq"`
	Draining bool            `json:"draining,omitempty"`
	Sweeps   []SweepProgress `json:"sweeps,omitempty"`
	Workers  []WorkerStatus  `json:"workers,omitempty"`
	Leases   []LeaseStatus   `json:"leases,omitempty"`
	Poisoned []PoisonStatus  `json:"poisoned,omitempty"`
	Events   []Event         `json:"events,omitempty"`
}
