package kernel

import (
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/stats"
)

// testEnv is the minimal machine the kernel touches: a clock, a collector,
// and a nil tracer (emission sites must tolerate trace-off runs).
func testEnv() *dir.Env {
	return &dir.Env{Eng: event.New(), Coll: stats.New()}
}

func TestNewNormalizesDeadline(t *testing.T) {
	if k := New(testEnv(), 0); k.WD.Deadline != protocol.DefaultCommitDeadline || !k.WD.Enabled() {
		t.Errorf("New(env, 0): deadline %d enabled=%t", k.WD.Deadline, k.WD.Enabled())
	}
	if k := New(testEnv(), 123); k.WD.Deadline != 123 {
		t.Errorf("New(env, 123): deadline %d", k.WD.Deadline)
	}
	if k := New(testEnv(), protocol.WatchdogDisabled); k.WD.Enabled() {
		t.Error("New(env, WatchdogDisabled): watchdog still enabled")
	}
}

func TestWatchdogDisabledArmIsNoOp(t *testing.T) {
	env := testEnv()
	k := New(env, protocol.WatchdogDisabled)
	probed := false
	k.WD.Arm(0, false, msg.CTag{}, 0,
		func() Disposition { probed = true; return Stalled },
		func() { t.Error("stalled callback ran with the watchdog disabled") })
	env.Eng.Run()
	if probed {
		t.Error("disabled watchdog still probed")
	}
	if env.Eng.Now() != 0 {
		t.Errorf("disabled watchdog advanced the clock to %d", env.Eng.Now())
	}
}

func TestWatchdogClosedStandsDown(t *testing.T) {
	env := testEnv()
	k := New(env, 100)
	probes := 0
	k.WD.Arm(3, true, msg.CTag{Proc: 3, Seq: 9}, 1,
		func() Disposition { probes++; return Closed },
		func() { t.Error("stalled callback ran on a decided attempt") })
	env.Eng.Run()
	if probes != 1 {
		t.Errorf("probe ran %d times, want 1", probes)
	}
	if k.WD.Fired != 0 {
		t.Errorf("Fired = %d on a Closed attempt", k.WD.Fired)
	}
	if env.Eng.Now() != 100 {
		t.Errorf("clock at %d, want the single deadline 100", env.Eng.Now())
	}
}

func TestWatchdogWatchingRearmsUntilStalled(t *testing.T) {
	env := testEnv()
	k := New(env, 50)
	probes, stalls := 0, 0
	k.WD.Arm(1, false, msg.CTag{Proc: 1, Seq: 4}, 2,
		func() Disposition {
			probes++
			if probes < 3 {
				return Watching
			}
			return Stalled
		},
		func() { stalls++ })
	env.Eng.Run()
	if probes != 3 || stalls != 1 {
		t.Errorf("probes=%d stalls=%d, want 3 probes and 1 stall", probes, stalls)
	}
	if k.WD.Fired != 1 {
		t.Errorf("Fired = %d, want 1", k.WD.Fired)
	}
	if env.Eng.Now() != 150 {
		t.Errorf("clock at %d, want 3 deadlines = 150", env.Eng.Now())
	}
}

// TestLifecycleHelpersTraceOff drives every lifecycle helper with a nil
// tracer: milestones must land in the collector and nothing may panic.
func TestLifecycleHelpersTraceOff(t *testing.T) {
	env := testEnv()
	k := New(env, 0)
	ck := &chunk.Chunk{Tag: msg.CTag{Proc: 2, Seq: 5}, Retries: 1}
	k.Started(2, ck)
	k.Formed(2, 5, 1)
	k.HoldBegin(3, ck.Tag, 1)
	k.HoldEnd(3, ck.Tag, 1)
	k.Done(3, true, ck.Tag, 1)
}

func TestAckSetDuplicateSafe(t *testing.T) {
	var a AckSet[int]
	if !a.Done() {
		t.Error("zero-value AckSet (nothing expected) must be Done")
	}
	a.Expect(2)
	if a.Done() || a.Outstanding() != 2 {
		t.Errorf("after Expect(2): done=%t outstanding=%d", a.Done(), a.Outstanding())
	}
	if !a.Ack(7) {
		t.Error("first ack rejected")
	}
	if a.Ack(7) {
		t.Error("duplicate ack accepted")
	}
	if a.Count() != 1 || a.Outstanding() != 1 || a.Done() {
		t.Errorf("after dup: count=%d outstanding=%d done=%t", a.Count(), a.Outstanding(), a.Done())
	}
	if !a.Ack(9) {
		t.Error("second ack rejected")
	}
	if !a.Done() || a.Outstanding() != 0 {
		t.Errorf("after both acks: outstanding=%d done=%t", a.Outstanding(), a.Done())
	}
	// Incremental discovery (TCC finds sharers as lines drain) reopens it.
	a.Expect(1)
	if a.Done() {
		t.Error("Expect after completion did not reopen the set")
	}
	if !a.Ack(11) || !a.Done() {
		t.Error("set did not complete after the late responder acked")
	}
}

func TestAckSetUnexpectedAckGoesNegative(t *testing.T) {
	var a AckSet[string]
	if !a.Ack("ghost") {
		t.Fatal("ack rejected")
	}
	if a.Outstanding() != -1 {
		t.Errorf("Outstanding = %d after an unexpected ack, want -1 (callers assert on it)", a.Outstanding())
	}
}

// Composite keys cover per-line acks (TCC's invalKey).
func TestAckSetCompositeKey(t *testing.T) {
	type key struct {
		src  int
		line uint64
	}
	var a AckSet[key]
	a.Expect(2)
	a.Ack(key{1, 0x40})
	a.Ack(key{1, 0x80}) // same node, different line: distinct responder
	if !a.Done() {
		t.Error("per-line keys from one node not counted separately")
	}
}
