package kernel

import (
	"fmt"
	"strings"
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

// funcProber adapts two functions to Prober for the tests.
type funcProber struct {
	probe func(node int, tag msg.CTag, try int) Disposition
	stall func(node int, tag msg.CTag, try int)
}

func (f funcProber) Probe(node int, tag msg.CTag, try int) Disposition {
	return f.probe(node, tag, try)
}

func (f funcProber) Stall(node int, tag msg.CTag, try int) { f.stall(node, tag, try) }

// TestNewDeadline: the deadline is used as given, WatchdogDisabled turns
// the watchdog off, and zero (a default that was never applied) panics.
func TestNewDeadline(t *testing.T) {
	if k := New(testEnv(), 123, nil); k.WD.Deadline != 123 {
		t.Errorf("New(env, 123): deadline %d", k.WD.Deadline)
	}
	if k := New(testEnv(), protocol.WatchdogDisabled, nil); k.WD.Enabled() {
		t.Error("New(env, WatchdogDisabled): watchdog still enabled")
	}
	defer func() {
		if recover() == nil {
			t.Error("New(env, 0) did not panic")
		}
	}()
	New(testEnv(), 0, nil)
}

func TestWatchdogDisabledArmIsNoOp(t *testing.T) {
	env := testEnv()
	probed := false
	k := New(env, protocol.WatchdogDisabled, funcProber{
		func(int, msg.CTag, int) Disposition { probed = true; return Stalled },
		func(int, msg.CTag, int) { t.Error("Stall ran with the watchdog disabled") },
	})
	k.WD.Arm(0, false, msg.CTag{}, 0)
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
	probes := 0
	k := New(env, 100, funcProber{
		func(node int, tag msg.CTag, try int) Disposition {
			if node != 3 || tag != (msg.CTag{Proc: 3, Seq: 9}) || try != 1 {
				t.Errorf("probe got (%d, %v, %d), want the armed snapshot", node, tag, try)
			}
			probes++
			return Closed
		},
		func(int, msg.CTag, int) { t.Error("Stall ran on a decided attempt") },
	})
	k.WD.Arm(3, true, msg.CTag{Proc: 3, Seq: 9}, 1)
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
	probes, stalls := 0, 0
	k := New(env, 50, funcProber{
		func(int, msg.CTag, int) Disposition {
			probes++
			if probes < 3 {
				return Watching
			}
			return Stalled
		},
		func(node int, tag msg.CTag, try int) {
			if node != 1 || tag != (msg.CTag{Proc: 1, Seq: 4}) || try != 2 {
				t.Errorf("Stall got (%d, %v, %d), want the armed snapshot", node, tag, try)
			}
			stalls++
		},
	})
	k.WD.Arm(1, false, msg.CTag{Proc: 1, Seq: 4}, 2)
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

// TestWatchdogLaneKeepsEventOrder arms deadlines among ordinary events and
// re-arms some from their probes. Each deadline must fire where an event
// scheduled at arm time (and, for a re-arm, at probe time) would have fired:
// at arm time + Deadline, after the same-cycle events scheduled before the
// arm and before those scheduled after it. The lane holds one engine event
// at a time.
func TestWatchdogLaneKeepsEventOrder(t *testing.T) {
	const deadline = 10
	env := testEnv()
	eng := env.Eng
	var got []string
	rearmed := map[int]bool{}
	k := New(env, deadline, funcProber{
		func(node int, _ msg.CTag, try int) Disposition {
			got = append(got, fmt.Sprintf("wd%d.%d@%d", node, try, eng.Now()))
			if node%2 == 0 && !rearmed[node] {
				rearmed[node] = true
				return Watching
			}
			return Closed
		},
		func(int, msg.CTag, int) {},
	})
	ev := func(name string) event.Handler {
		return func() { got = append(got, fmt.Sprintf("%s@%d", name, eng.Now())) }
	}
	// Cycle 0: an event at +10 before the arm, one after it.
	eng.After(deadline, ev("a"))
	k.WD.Arm(0, false, msg.CTag{}, 0)
	eng.After(deadline, ev("b"))
	// Cycle 3: two deadlines armed in one cycle around an event.
	eng.At(3, func() {
		before := eng.Pending()
		k.WD.Arm(1, false, msg.CTag{}, 0)
		eng.After(deadline, ev("c"))
		k.WD.Arm(2, false, msg.CTag{}, 0)
		if n := eng.Pending() - before; n != 1 {
			t.Errorf("two arms behind a scheduled head added %d events, want only c's", n-1)
		}
	})
	// Node 0's probe at cycle 10 re-arms it for 20, behind an event
	// scheduled for 20 at cycle 0.
	eng.At(20, ev("d"))
	// Node 2's probe at cycle 13 re-arms it for 23, behind an event
	// scheduled for 23 at cycle 12.
	eng.At(12, func() { eng.After(11, ev("e")) })
	eng.Run()
	want := "a@10 wd0.0@10 b@10 wd1.0@13 c@13 wd2.0@13 d@20 wd0.0@20 e@23 wd2.0@23"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("firing order\n got  %s\n want %s", g, want)
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events left", eng.Pending())
	}
}

// TestLifecycleHelpersTraceOff drives every lifecycle helper with a nil
// tracer: milestones must land in the collector and nothing may panic.
func TestLifecycleHelpersTraceOff(t *testing.T) {
	env := testEnv()
	k := New(env, protocol.DefaultCommitDeadline, nil)
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

func TestAckSetResetForgetsAcks(t *testing.T) {
	var a AckSet[int]
	a.Expect(2)
	a.Ack(1)
	a.Reset()
	if !a.Done() || a.Count() != 0 {
		t.Errorf("after Reset: done=%t count=%d, want an empty set", a.Done(), a.Count())
	}
	a.Expect(1)
	if !a.Ack(1) {
		t.Error("an ack from before Reset still counts as a duplicate")
	}
	if !a.Done() {
		t.Error("set not done after its one expected ack")
	}
}
