package core

import (
	"testing"

	"scalablebulk/internal/event"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/sig"
)

// dropInterposer drops messages selected by pick (once per matching message
// until budget runs out); everything else passes through unmodified.
type dropInterposer struct {
	pick   func(m *msg.Msg) bool
	budget int
}

func (d *dropInterposer) Plan(m *msg.Msg, now, at event.Time) []mesh.Delivery {
	if d.budget > 0 && d.pick(m) {
		d.budget--
		return nil
	}
	return []mesh.Delivery{{At: at, M: m}}
}

// TestWatchdogRecoversDroppedGrab: losing a g message mid-traversal strands
// the group half-formed — no module ever reports failure, so without the
// watchdog the commit hangs forever. The deadline must fire, fail the
// attempt, and let the retry commit.
func TestWatchdogRecoversDroppedGrab(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	r.net.Fault = &dropInterposer{budget: 1, pick: func(m *msg.Msg) bool { return m.Kind == msg.Grab }}
	ck := r.mkChunk(0, 1, []sig.Line{1000, 2000}, []sig.Line{5000})
	if len(ck.Dirs) != 3 {
		t.Fatalf("gvec = %v, want 3 modules", ck.Dirs)
	}
	r.procs[0].submit(ck)
	r.eng.Run()
	if !r.procs[0].done[1] {
		t.Fatal("chunk never committed after dropped g message")
	}
	if r.proto.Fails.Watchdog != 1 {
		t.Fatalf("Watchdog fired %d times, want 1", r.proto.Fails.Watchdog)
	}
	if r.procs[0].failures != 1 {
		t.Fatalf("processor saw %d failures, want 1", r.procs[0].failures)
	}
	for _, mod := range r.proto.mods {
		if len(mod.cst) != 0 {
			t.Fatalf("module %d leaked CST entries: %s", mod.id, r.proto.DebugModule(mod.id))
		}
	}
}

// TestWatchdogNoOpAfterSuccess: a commit that completes before the deadline
// closes its watchdog; the still-scheduled deadline event fires as a no-op.
func TestWatchdogNoOpAfterSuccess(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	ck := r.mkChunk(3, 1, []sig.Line{1000}, []sig.Line{2000})
	r.procs[3].submit(ck)
	r.eng.Run() // drains the +CommitDeadline event too
	if !r.procs[3].done[1] {
		t.Fatal("chunk did not commit")
	}
	if r.proto.Fails.Watchdog != 0 {
		t.Fatalf("watchdog fired %d times after a clean commit", r.proto.Fails.Watchdog)
	}
}

// TestWatchdogDisabled: protocol.WatchdogDisabled must not arm anything, so
// the dropped-g hang is reproduced (the chunk stays uncommitted) instead of
// recovered — this pins the opt-out knob.
func TestWatchdogDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommitDeadline = protocol.WatchdogDisabled
	r := newRig(t, 8, cfg)
	r.net.Fault = &dropInterposer{budget: 1, pick: func(m *msg.Msg) bool { return m.Kind == msg.Grab }}
	ck := r.mkChunk(0, 1, []sig.Line{1000, 2000}, []sig.Line{5000})
	r.procs[0].submit(ck)
	r.eng.Run()
	if r.procs[0].done[1] {
		t.Fatal("chunk committed despite the dropped g message and no watchdog")
	}
	if r.proto.Fails.Watchdog != 0 {
		t.Fatal("disabled watchdog fired")
	}
}

// dupDelayInterposer duplicates BulkInvAck messages and delays the second
// distinct ack far beyond the duplicate, so a leader that double-counts the
// duplicate would finish the commit before every sharer actually acked.
type dupDelayInterposer struct {
	acks int
}

func (d *dupDelayInterposer) Plan(m *msg.Msg, now, at event.Time) []mesh.Delivery {
	if m.Kind != msg.BulkInvAck {
		return []mesh.Delivery{{At: at, M: m}}
	}
	d.acks++
	if d.acks == 1 {
		return []mesh.Delivery{{At: at, M: m}, {At: at + 50, M: m.Clone()}}
	}
	return []mesh.Delivery{{At: at + 5000, M: m}}
}

// TestDuplicateBulkInvAckCountedOnce: with two sharers to invalidate, a
// duplicated first ack must not stand in for the second sharer's ack —
// commit_done may only be sent after the delayed real ack arrives.
func TestDuplicateBulkInvAckCountedOnce(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	r.net.Fault = &dupDelayInterposer{}
	r.env.State.AddSharer(2000, 6)
	r.env.State.AddSharer(2000, 7)
	ck := r.mkChunk(0, 1, []sig.Line{1000}, []sig.Line{2000})
	var lastAckAt, doneSentAt event.Time
	r.net.OnDeliver = func(m *msg.Msg) {
		if m.Kind == msg.BulkInvAck {
			lastAckAt = r.eng.Now()
		}
	}
	r.net.OnSend = func(m *msg.Msg) {
		if m.Kind == msg.CommitDone && doneSentAt == 0 {
			doneSentAt = r.eng.Now()
		}
	}
	r.procs[0].submit(ck)
	r.eng.Run()
	if !r.procs[0].done[1] {
		t.Fatal("chunk did not commit")
	}
	if doneSentAt == 0 {
		t.Fatal("commit_done never sent")
	}
	if doneSentAt < lastAckAt {
		t.Fatalf("commit_done sent at %d before the last real ack at %d: duplicate ack was double-counted",
			doneSentAt, lastAckAt)
	}
}

// TestGFailureAtConfirmedEntryClearsAsSuccess: a g_failure reaching an entry
// whose group already formed (only possible from a watchdog race or a
// duplicated failure) must tear it down as a success — otherwise the chunk's
// starvation reservation and squash history stay behind forever and wedge
// the module.
func TestGFailureAtConfirmedEntryClearsAsSuccess(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	mod := r.proto.mods[1]
	tag := msg.CTag{Proc: 0, Seq: 1}
	e := mod.getOrCreate(tag)
	e.try = 2
	e.state = stConfirmed
	mod.histFor(tag).squashes = 99
	res := tag
	mod.reserved = &res

	r.proto.onGFailure(mod, &msg.Msg{Kind: msg.GFailure, Src: 3, Dst: 1, Tag: tag, TID: 2})

	if mod.find(tag) != nil {
		t.Fatal("confirmed entry survived the g_failure")
	}
	if mod.reserved != nil {
		t.Fatal("starvation reservation not cleared: module is wedged")
	}
	h := mod.histOf(tag)
	if h == nil || h.squashes != 0 {
		t.Fatal("squash history not cleared")
	}
	if !h.failed || h.failedTry != int(^uint(0)>>1) {
		t.Fatalf("committed chunk not tombstoned: failedTry = %d", h.failedTry)
	}
}
