package farm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// pointState is the lease table's per-point state machine:
//
//	Pending ──acquire──▶ Leased ──result──▶ Done
//	   ▲                    │
//	   └──expiry / fail─────┘   (deaths from PoisonAfter distinct
//	        (backoff)            workers, or attempts past the cap,
//	                             short-circuit to Poisoned/Failed)
type pointState int

const (
	statePending pointState = iota
	stateLeased
	stateDone
	stateFailed
	statePoisoned
)

// lease is one grant of a point to a worker, renewable by heartbeat until
// it expires or resolves.
type lease struct {
	id      string
	worker  string
	granted time.Time
	expires time.Time
}

// pointEntry tracks one sweep point through the lease state machine.
type pointEntry struct {
	id    int
	point Point
	state pointState
	// unit is the point's warm unit (system.WarmUnits): the points that
	// can restore one warm-up. acquire keeps a worker on its unit.
	unit int
	// attempt counts lease grants; notBefore gates re-queue backoff;
	// requeues counts returns to Pending after a death or failure.
	attempt   int
	requeues  int
	notBefore time.Time
	// deadWorkers records the distinct workers whose lease on this point
	// died (expired or crashed) — the poison counter.
	deadWorkers map[string]bool
	lastErr     string
}

// leaseTable is the server's scheduler state for one sweep: which points
// are pending, leased, or terminal, with expiry sweeping, seeded-jitter
// re-queue backoff, and poisoning. All methods require the caller to hold
// the owning server's lock; the table itself is not concurrency-safe.
type leaseTable struct {
	opts    Options
	now     func() time.Time
	rng     *rand.Rand
	entries []*pointEntry
	// leases indexes live leases by lease ID.
	leases map[string]*leaseAt
	// lastUnit is the unit of each worker's last grant.
	lastUnit map[string]int
}

// leaseAt ties a live lease back to its point entry.
type leaseAt struct {
	l     *lease
	entry *pointEntry
}

func newLeaseTable(points []Point, opts Options, now func() time.Time, rng *rand.Rand) *leaseTable {
	t := &leaseTable{opts: opts, now: now, rng: rng,
		leases: map[string]*leaseAt{}, lastUnit: map[string]int{}}
	for i, p := range points {
		t.entries = append(t.entries, &pointEntry{
			id: i, point: p, unit: i, deadWorkers: map[string]bool{},
		})
	}
	return t
}

// markDone transitions a point terminal without a lease — journal restores
// at submit time.
func (t *leaseTable) markDone(pointID int) { t.entries[pointID].state = stateDone }

// expire sweeps every leased point whose lease lapsed: the holding worker
// is presumed dead, its death is charged to the poison counter, and the
// point re-queues with backoff (or poisons). Returns the expired leases so
// the server can log and count them.
func (t *leaseTable) expire() []leaseAt {
	now := t.now()
	var dead []leaseAt
	for id, la := range t.leases {
		if now.After(la.l.expires) {
			dead = append(dead, *la)
			delete(t.leases, id)
			t.observeLeaseAge(la.l)
			t.chargeDeath(la.entry, la.l.worker, "lease expired (worker presumed dead)")
		}
	}
	return dead
}

// leaseAgeBounds and requeueBackoffBounds bucket the farm's two latency
// histograms (milliseconds) for /metrics.prom and SweepProgress.
var (
	leaseAgeBounds       = []float64{10, 50, 100, 500, 1000, 5000, 15000, 60000}
	requeueBackoffBounds = []float64{10, 50, 250, 1000, 2500, 10000}
)

// observeLeaseAge records how long a just-released lease was held.
func (t *leaseTable) observeLeaseAge(l *lease) {
	if t.opts.Metrics == nil {
		return
	}
	age := t.now().Sub(l.granted)
	t.opts.Metrics.Histogram("farm_lease_age_ms", leaseAgeBounds).
		Observe(float64(age.Microseconds()) / 1000)
}

// acquire grants worker a pending point outside its backoff window, or
// returns nil when nothing is runnable right now. A worker keeps the warm
// image of its last machine, so among the eligible points acquire takes, in
// this order: the first of the worker's unit (that of its last grant), the
// first of a unit that is no other worker's unit, and the first in point
// order. Each unit then tends to warm up once, on one worker, while the
// workers spread over units. A unit stays its worker's between a result
// and the next lease request, when the worker holds no lease in it.
func (t *leaseTable) acquire(worker, leaseID string) (*pointEntry, *lease) {
	now := t.now()
	last, hasLast := t.lastUnit[worker]
	var held []int
	for w, u := range t.lastUnit {
		if w != worker {
			held = append(held, u)
		}
	}
	var own, free, first *pointEntry
	for _, e := range t.entries {
		if e.state != statePending || now.Before(e.notBefore) {
			continue
		}
		if hasLast && e.unit == last {
			own = e
			break
		}
		if first == nil {
			first = e
		}
		if free == nil && !slices.Contains(held, e.unit) {
			free = e
		}
	}
	e := cmp.Or(own, free, first)
	if e == nil {
		return nil, nil
	}
	e.state = stateLeased
	e.attempt++
	t.lastUnit[worker] = e.unit
	l := &lease{id: leaseID, worker: worker, granted: now, expires: now.Add(t.opts.LeaseTTL)}
	t.leases[leaseID] = &leaseAt{l: l, entry: e}
	return e, l
}

// nextEligible is the earliest time a pending point leaves its backoff
// window, or zero when no point is pending.
func (t *leaseTable) nextEligible() time.Time {
	var next time.Time
	for _, e := range t.entries {
		if e.state == statePending && (next.IsZero() || e.notBefore.Before(next)) {
			next = e.notBefore
		}
	}
	return next
}

// heartbeat renews a live lease; false means the lease is gone (expired and
// re-queued, or resolved) and the worker should abandon the run.
func (t *leaseTable) heartbeat(leaseID string) bool {
	la, ok := t.leases[leaseID]
	if !ok {
		return false
	}
	la.l.expires = t.now().Add(t.opts.LeaseTTL)
	return true
}

// complete resolves a lease's point as Done. The lease may already be gone
// (expired while the result was in flight) — the point still completes if
// it is not already terminal.
func (t *leaseTable) complete(pointID int, leaseID string) {
	if la, ok := t.leases[leaseID]; ok {
		delete(t.leases, leaseID)
		t.observeLeaseAge(la.l)
		la.entry.state = stateDone
		return
	}
	if e := t.entries[pointID]; e.state != stateDone {
		// Orphan completion: lease expired or server restarted, but the
		// work is real and verified — take it.
		if e.state == stateLeased {
			t.dropLeaseOf(e)
		}
		e.state = stateDone
	}
}

// dropLeaseOf removes whatever live lease points at e (a re-grant after the
// original holder's expiry) — its holder will get a gone heartbeat.
func (t *leaseTable) dropLeaseOf(e *pointEntry) {
	for id, la := range t.leases {
		if la.entry == e {
			delete(t.leases, id)
		}
	}
}

// fail records a run failure under a live lease. A crash (worker survived
// but the run panicked) charges the poison counter like a death; an
// ordinary error re-queues with backoff until the attempt cap.
func (t *leaseTable) fail(leaseID string, crashed bool, msg string) bool {
	la, ok := t.leases[leaseID]
	if !ok {
		return false
	}
	delete(t.leases, leaseID)
	t.observeLeaseAge(la.l)
	la.entry.lastErr = msg
	if crashed {
		t.chargeDeath(la.entry, la.l.worker, msg)
	} else {
		t.requeue(la.entry, msg)
	}
	return true
}

// chargeDeath marks worker dead on e's poison counter and re-queues or
// poisons the point.
func (t *leaseTable) chargeDeath(e *pointEntry, worker, msg string) {
	e.deadWorkers[worker] = true
	e.lastErr = msg
	if len(e.deadWorkers) >= t.opts.PoisonAfter {
		e.state = statePoisoned
		e.lastErr = fmt.Sprintf("poisoned: killed %d distinct workers; last: %s",
			len(e.deadWorkers), msg)
		return
	}
	t.requeue(e, msg)
}

// requeue returns a point to Pending behind a seeded-jitter exponential
// backoff window, or marks it Failed once the attempt cap is spent. The cap
// is max(MaxAttempts, PoisonAfter) so a small worker pool can still reach
// the poison threshold before the budget wedges the point.
func (t *leaseTable) requeue(e *pointEntry, msg string) {
	budget := t.opts.MaxAttempts
	if t.opts.PoisonAfter > budget {
		budget = t.opts.PoisonAfter
	}
	if e.attempt >= budget {
		e.state = stateFailed
		e.lastErr = fmt.Sprintf("retry budget exhausted after %d leases; last: %s",
			e.attempt, msg)
		return
	}
	e.state = statePending
	e.requeues++
	pause := t.backoff(e.attempt)
	e.notBefore = t.now().Add(pause)
	if t.opts.Metrics != nil {
		t.opts.Metrics.Histogram("farm_requeue_backoff_ms", requeueBackoffBounds).
			Observe(float64(pause.Microseconds()) / 1000)
	}
}

// backoff is base×2^(n-1) capped at MaxBackoff, plus a uniform seeded
// jitter, so concurrent re-queues decorrelate without nondeterministic
// randomness sources.
func (t *leaseTable) backoff(attempt int) time.Duration {
	pol := t.opts.Requeue
	pause := pol.Backoff
	for i := 1; i < attempt; i++ {
		pause *= 2
		if pause >= pol.MaxBackoff {
			pause = pol.MaxBackoff
			break
		}
	}
	if pause > pol.MaxBackoff {
		pause = pol.MaxBackoff
	}
	if pol.Jitter > 0 && pause > 0 {
		pause += time.Duration(t.rng.Int63n(int64(float64(pause)*pol.Jitter) + 1))
	}
	return pause
}

// counts tallies the table for SweepProgress.
func (t *leaseTable) counts() (pending, leased, done, failed, poisoned int) {
	for _, e := range t.entries {
		switch e.state {
		case statePending:
			pending++
		case stateLeased:
			leased++
		case stateDone:
			done++
		case stateFailed:
			failed++
		case statePoisoned:
			poisoned++
		}
	}
	return
}

// RequeuePolicy shapes the lease table's re-queue backoff after a lease
// dies or a run fails.
type RequeuePolicy struct {
	// Backoff is the pause before a point's first re-queue, doubling with
	// each further one.
	Backoff time.Duration
	// MaxBackoff bounds any single pause.
	MaxBackoff time.Duration
	// Jitter adds a uniform extra in [0, Jitter×pause] drawn from the
	// server's seeded PRNG (negative disables).
	Jitter float64
}
