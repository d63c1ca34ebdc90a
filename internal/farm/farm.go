// Package farm is the distributed sweep farm: an HTTP/JSON job server that
// accepts sweep specs (protocol × cores × workload points), dedupes
// identical points through the checkpoint journal, and hands points to
// worker processes under time-bounded leases with heartbeat renewal.
//
// The durability story stacks three layers:
//
//   - Leases. A worker holds each point under a TTL it must renew by
//     heartbeat. A worker that dies — SIGKILL, OOM, network partition —
//     simply stops renewing; the server's expiry sweep re-queues the point
//     behind a seeded-jitter exponential backoff.
//   - Poisoning. A point whose leases die under PoisonAfter distinct
//     workers is quarantined as poisoned (the point kills workers, not the
//     other way around) and reported with its crash bundle instead of
//     being retried forever.
//   - The journal. Completed points are persisted through the root
//     package's fingerprint-verified JSONL journal before they are
//     acknowledged, so a server killed mid-sweep restarts, replays the
//     journal, and resumes with every completed point intact. Workers that
//     finish while the server is down deliver orphan results on reconnect;
//     the server verifies and journals them even though the lease is gone.
//
// A thin client follows a sweep over SSE, served from the sweep's
// append-only result stream (see Server.handleSweepEvents). A resume point
// from an earlier server process replays that stream from its start, and the
// client deduplicates by point, so a restart never loses a result.
//
// Determinism is the acceptance contract: a farm sweep — with workers
// killed and the server restarted mid-run — produces byte-identical
// ResultFingerprints to the same spec run in-process through
// Session.SweepContext. It holds by construction: SweepSpec is the root
// package's sweep description, whose Config is the one derivation of a
// point's Config, and workers run points through the root WarmRunner as
// the Session does.
package farm

import (
	"log/slog"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/metrics"
)

// Options configures a Server.
type Options struct {
	// LeaseTTL bounds each lease; a worker heartbeats at TTL/3 and a lease
	// not renewed within TTL is presumed dead. 0 selects 10s.
	LeaseTTL time.Duration
	// PoisonAfter quarantines a point after its leases died under this
	// many distinct workers. 0 selects 3.
	PoisonAfter int
	// MaxAttempts caps lease grants per point; the effective cap is
	// max(MaxAttempts, PoisonAfter). 0 selects 3.
	MaxAttempts int
	// Requeue shapes the re-queue backoff; zero fields select a 25ms base,
	// a 2s cap and 0.5 jitter.
	Requeue RequeuePolicy
	// Seed seeds the backoff-jitter PRNG so scheduling noise is
	// reproducible run to run.
	Seed int64
	// Journal, when non-nil, is the durable checkpoint every completed
	// point is recorded into (and restored from at submit).
	Journal *scalablebulk.Journal
	// CrashDir, when nonempty, receives crash bundles forwarded by
	// workers whose runs panicked.
	CrashDir string
	// Metrics, when non-nil, receives farm counters and gauges.
	Metrics *metrics.Registry
	// EventHistory bounds the in-memory ring of recent events that
	// FarmStatus's event tail (sbtop) reads. 0 selects 8192.
	EventHistory int
	// SSEPing is the keepalive-comment interval on SSE streams (defeats
	// idle-connection reapers between events). 0 selects 5s.
	SSEPing time.Duration
	// Logger, when non-nil, receives a structured log line per farm event:
	// the event kind as the message, then seq, sweep, worker, lease,
	// point_id, point, corr and detail. It is the farm's only event record;
	// with a JSON handler each line carries every Event field.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.PoisonAfter <= 0 {
		o.PoisonAfter = 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Requeue.Backoff <= 0 {
		o.Requeue.Backoff = 25 * time.Millisecond
	}
	if o.Requeue.MaxBackoff <= 0 {
		o.Requeue.MaxBackoff = 2 * time.Second
	}
	if o.Requeue.Jitter == 0 {
		o.Requeue.Jitter = 0.5
	}
	if o.EventHistory <= 0 {
		o.EventHistory = 8192
	}
	if o.SSEPing <= 0 {
		o.SSEPing = 5 * time.Second
	}
	return o
}
