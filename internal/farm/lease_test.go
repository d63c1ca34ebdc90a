package farm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic lease-table tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func testRNG() *rand.Rand                    { return rand.New(rand.NewSource(7)) }
func pts(n int) []Point {
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{App: "Radix", Protocol: "ScalableBulk", Cores: 8 << i}
	}
	return out
}

func testOpts() Options {
	return Options{
		LeaseTTL: 10 * time.Second, PoisonAfter: 3, MaxAttempts: 3,
		Requeue: RequeuePolicy{Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Jitter: 0.5},
	}.withDefaults()
}

func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(pts(1), testOpts(), clk.now, testRNG())

	e, l := tab.acquire("w1", "l-1")
	if e == nil || e.id != 0 || l.worker != "w1" {
		t.Fatalf("acquire = %+v, %+v", e, l)
	}
	if e2, _ := tab.acquire("w2", "l-2"); e2 != nil {
		t.Fatalf("second acquire got the leased point %d", e2.id)
	}
	// Heartbeats hold the lease across the TTL.
	clk.advance(8 * time.Second)
	if !tab.heartbeat("l-1") {
		t.Fatal("heartbeat on a live lease failed")
	}
	clk.advance(8 * time.Second)
	if dead := tab.expire(); dead != nil {
		t.Fatalf("renewed lease expired: %+v", dead)
	}
	// Without renewal the lease dies and the point re-queues.
	clk.advance(11 * time.Second)
	dead := tab.expire()
	if len(dead) != 1 || dead[0].l.worker != "w1" {
		t.Fatalf("expire = %+v, want w1's lease", dead)
	}
	if e.state != statePending || e.attempt != 1 || !e.deadWorkers["w1"] {
		t.Fatalf("after expiry: state=%v attempt=%d dead=%v", e.state, e.attempt, e.deadWorkers)
	}
	if tab.heartbeat("l-1") {
		t.Fatal("heartbeat on an expired lease succeeded")
	}
	// The re-queue is gated by backoff: immediately re-acquiring fails,
	// after the backoff window it succeeds.
	if e2, _ := tab.acquire("w2", "l-2"); e2 != nil {
		t.Fatal("acquire inside the backoff window succeeded")
	}
	clk.advance(time.Second)
	if e2, _ := tab.acquire("w2", "l-2"); e2 == nil || e2.attempt != 2 {
		t.Fatalf("acquire after backoff = %+v", e2)
	}
}

func TestPoisonAfterDistinctWorkerDeaths(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	opts.PoisonAfter = 2
	opts.MaxAttempts = 10 // attempts must not fail the point before poison triggers
	tab := newLeaseTable(pts(1), opts, clk.now, testRNG())

	for i, w := range []string{"w1", "w2"} {
		clk.advance(time.Second)
		e, _ := tab.acquire(w, "l-"+w)
		if e == nil {
			t.Fatalf("acquire %d by %s failed", i, w)
		}
		clk.advance(opts.LeaseTTL + time.Second)
		tab.expire()
	}
	e := tab.entries[0]
	if e.state != statePoisoned {
		t.Fatalf("after 2 distinct deaths: state=%v, want poisoned", e.state)
	}
	if _, _, done, failed, poisoned := tab.counts(); done != 0 || failed != 0 || poisoned != 1 {
		t.Fatalf("counts: done=%d failed=%d poisoned=%d", done, failed, poisoned)
	}
}

func TestSameWorkerDeathsDoNotPoison(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	opts.PoisonAfter = 2
	opts.MaxAttempts = 10
	tab := newLeaseTable(pts(1), opts, clk.now, testRNG())

	// The same worker dying over and over is a bad worker, not a poisoned
	// point: the distinct-worker counter must stay at 1.
	for i := 0; i < 4; i++ {
		clk.advance(time.Second)
		if e, _ := tab.acquire("w1", "l-x"); e == nil {
			t.Fatalf("acquire %d failed", i)
		}
		clk.advance(opts.LeaseTTL + time.Second)
		tab.expire()
	}
	if e := tab.entries[0]; e.state == statePoisoned {
		t.Fatal("point poisoned by repeated deaths of one worker")
	}
}

func TestRetryBudgetFailsPoint(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	opts.MaxAttempts = 2
	opts.PoisonAfter = 1 // below MaxAttempts, so the attempt cap (max of the two) governs
	tab := newLeaseTable(pts(1), opts, clk.now, testRNG())

	for i := 0; i < 2; i++ {
		clk.advance(time.Second)
		e, l := tab.acquire("w1", "l-1")
		if e == nil {
			t.Fatalf("acquire %d failed", i)
		}
		if !tab.fail(l.id, false, "boom") {
			t.Fatalf("fail %d did not find the lease", i)
		}
	}
	if e := tab.entries[0]; e.state != stateFailed {
		t.Fatalf("after exhausting attempts: state=%v, want failed", e.state)
	}
}

func TestEffectiveCapIsMaxOfAttemptsAndPoison(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	opts.MaxAttempts = 1
	opts.PoisonAfter = 3
	tab := newLeaseTable(pts(1), opts, clk.now, testRNG())

	// With 3 distinct workers required to poison, a MaxAttempts of 1 must
	// not wedge the point first — the effective cap is max(1, 3).
	for _, w := range []string{"w1", "w2", "w3"} {
		clk.advance(time.Second)
		e, _ := tab.acquire(w, "l-"+w)
		if e == nil {
			t.Fatalf("acquire by %s failed (point wedged early: state=%v)",
				w, tab.entries[0].state)
		}
		clk.advance(opts.LeaseTTL + time.Second)
		tab.expire()
	}
	if e := tab.entries[0]; e.state != statePoisoned {
		t.Fatalf("state=%v, want poisoned after 3 distinct deaths", e.state)
	}
}

func TestBackoffScheduleIsSeededAndCapped(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	tab1 := newLeaseTable(pts(1), opts, clk.now, rand.New(rand.NewSource(3)))
	tab2 := newLeaseTable(pts(1), opts, clk.now, rand.New(rand.NewSource(3)))
	for n := 1; n <= 6; n++ {
		b1, b2 := tab1.backoff(n), tab2.backoff(n)
		if b1 != b2 {
			t.Fatalf("attempt %d: same seed produced %v vs %v", n, b1, b2)
		}
		limit := opts.Requeue.MaxBackoff + time.Duration(float64(opts.Requeue.MaxBackoff)*opts.Requeue.Jitter)
		if b1 < 0 || b1 > limit {
			t.Fatalf("attempt %d: backoff %v outside [0, %v]", n, b1, limit)
		}
	}
}

func TestCompleteResolvesOrphanedPoint(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(pts(1), testOpts(), clk.now, testRNG())
	e, l := tab.acquire("w1", "l-1")
	clk.advance(testOpts().LeaseTTL + time.Second)
	tab.expire() // w1 presumed dead, point re-queued
	if e.state != statePending {
		t.Fatalf("state=%v, want pending", e.state)
	}
	// w1 was alive after all and delivers: the completion lands even though
	// its lease is gone.
	tab.complete(0, l.id)
	if e.state != stateDone {
		t.Fatalf("state=%v, want done after orphan completion", e.state)
	}
}

// unitTable is a lease table over len(units) points, point i in warm unit
// units[i].
func unitTable(clk *fakeClock, opts Options, units ...int) *leaseTable {
	tab := newLeaseTable(pts(len(units)), opts, clk.now, testRNG())
	for i, u := range units {
		tab.entries[i].unit = u
	}
	return tab
}

// TestAcquireKeepsWorkersOnTheirUnits: acquire prefers the unit of the
// worker's last grant, then a unit no other worker holds, then any point;
// backoff, attempts and poisoning work as without units.
func TestAcquireKeepsWorkersOnTheirUnits(t *testing.T) {
	clk := newFakeClock()
	opts := testOpts()
	opts.PoisonAfter = 2
	opts.MaxAttempts = 10
	tab := unitTable(clk, opts, 0, 0, 1, 0, 1, 1, 2)
	grant := func(worker string, want int) *lease {
		t.Helper()
		e, l := tab.acquire(worker, fmt.Sprintf("l-%s-%d", worker, want))
		if e == nil || e.id != want {
			t.Fatalf("%s was granted %+v, want point %d", worker, e, want)
		}
		return l
	}
	done := func(l *lease) { tab.complete(tab.leases[l.id].entry.id, l.id) }

	l0 := grant("w1", 0)
	// Unit 0 is w1's, so w2 skips point 1 for the first point of unit 1.
	l2 := grant("w2", 2)
	// Unit 0 stays w1's while w1 holds no lease, between its result and
	// its next request: w3 takes the first point of unit 2.
	done(l0)
	l6 := grant("w3", 6)
	// Each worker's next grant comes from its own unit.
	l1 := grant("w1", 1)
	done(l2)
	l4 := grant("w2", 4)
	done(l1)
	l3 := grant("w1", 3)
	// Only w2's unit has an eligible point left: w3 takes it, not nothing.
	done(l6)
	l5 := grant("w3", 5)
	if e, _ := tab.acquire("w4", "l-w4"); e != nil {
		t.Fatalf("w4 was granted point %d with nothing pending", e.id)
	}
	done(l4)
	done(l5)

	// A re-queued point of the worker's own unit still waits out its backoff.
	clk.advance(opts.LeaseTTL + time.Second)
	if dead := tab.expire(); len(dead) != 1 || dead[0].l.id != l3.id {
		t.Fatalf("expire = %+v, want w1's lease on point 3", dead)
	}
	if e, _ := tab.acquire("w1", "l-w1-again"); e != nil {
		t.Fatalf("w1 was granted point %d inside point 3's backoff", e.id)
	}
	clk.advance(time.Second)
	e, _ := tab.acquire("w1", "l-w1-again")
	if e == nil || e.id != 3 || e.attempt != 2 || !e.deadWorkers["w1"] {
		t.Fatalf("after backoff w1 was granted %+v, want point 3 at attempt 2 with w1 dead", e)
	}
	// A second distinct death still poisons the point.
	clk.advance(opts.LeaseTTL + time.Second)
	tab.expire()
	clk.advance(time.Second)
	if e, _ := tab.acquire("w2", "l-w2-3"); e == nil || e.id != 3 {
		t.Fatalf("w2 was granted %+v, want point 3", e)
	}
	clk.advance(opts.LeaseTTL + time.Second)
	tab.expire()
	if e := tab.entries[3]; e.state != statePoisoned || e.attempt != 3 {
		t.Fatalf("point 3: state=%v attempt=%d, want poisoned after 3 grants", e.state, e.attempt)
	}
}
