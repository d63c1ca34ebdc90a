package core

// Regression tests for the three liveness hazards found during the
// reproduction (EXPERIMENTS.md, "Implementation notes"): stale-attempt
// wedging, cross-reservation deadlock, and failure-notification feedback.
// Each drives the module state machine directly with hand-ordered messages,
// reproducing races that arise under network contention.

import (
	"testing"

	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

// inject delivers a directory-side message bypassing the network (the test
// controls ordering precisely).
func inject(r *rig, node int, m *msg.Msg) {
	m.Dst = node
	r.proto.HandleDir(node, m)
	runUntil(r.eng, r.eng.Now()+5) // let the expansion callback fire
}

func requestMsg(ck *chunkLike, dst int) *msg.Msg {
	return &msg.Msg{
		Kind: msg.CommitRequest, Src: ck.tag.Proc, Dst: dst, Tag: ck.tag,
		RSig: &ck.rsig, WSig: &ck.wsig, GVec: ck.gvec,
		WriteLines: ck.writes, TID: uint64(ck.try),
	}
}

type chunkLike struct {
	tag        msg.CTag
	try        int
	rsig, wsig sig.Sig
	gvec       []int
	writes     []sig.Line
}

func mkAttempt(proc int, seq uint64, try int, gvec []int, writes ...sig.Line) *chunkLike {
	c := &chunkLike{tag: msg.CTag{Proc: proc, Seq: seq}, try: try, gvec: gvec, writes: writes}
	for _, l := range writes {
		c.wsig.Insert(l)
	}
	return c
}

// TestStaleAttemptReplacedByNewer: an entry left over from a failed attempt
// is replaced when a newer attempt's commit_request arrives, and the stale
// group's members are unwound with g_failure.
func TestStaleAttemptReplacedByNewer(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	// Touch pages so writes home sensibly (not strictly needed here).
	old := mkAttempt(3, 5, 0, []int{1, 2}, 777)
	// Module 2 (non-leader) receives the old attempt's sigs; the g never
	// comes (the attempt died elsewhere and module 2 missed the g_failure).
	inject(r, 2, requestMsg(old, 2))
	if e := r.proto.mods[2].find(old.tag); e == nil || e.try != 0 {
		t.Fatal("setup: stale entry missing")
	}
	// The retry arrives.
	newer := mkAttempt(3, 5, 1, []int{1, 2}, 777)
	inject(r, 2, requestMsg(newer, 2))
	e := r.proto.mods[2].find(old.tag)
	if e == nil || e.try != 1 {
		t.Fatalf("stale entry not replaced: %+v", e)
	}
	// The stale attempt's group members got g_failure (unwinding).
	r.eng.Run()
	if r.net.Stats().ByKind[msg.GFailure] == 0 {
		t.Fatal("stale attempt's members not unwound with g_failure")
	}
}

// TestOlderMessagesOfStaleAttemptDropped: once a newer attempt's entry
// exists, a late message of the older attempt is discarded.
func TestOlderMessagesOfStaleAttemptDropped(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	newer := mkAttempt(3, 5, 2, []int{2, 4}, 777)
	inject(r, 4, requestMsg(newer, 4))
	before := r.proto.mods[4].find(newer.tag)
	// A contention-delayed g of attempt 0 arrives.
	inject(r, 4, &msg.Msg{Kind: msg.Grab, Src: 2, Tag: newer.tag, TID: 0, GVec: []int{2, 4}})
	after := r.proto.mods[4].find(newer.tag)
	if after != before || after.try != 2 || after.gotG {
		t.Fatalf("stale g corrupted the live entry: %+v", after)
	}
}

// TestTombstonedGrabUnwindsUpstream: a g arriving for a tombstoned (failed)
// attempt must multicast g_failure so upstream holders release — the ghost
// group bug that wedged Radix under contention.
func TestTombstonedGrabUnwindsUpstream(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	tag := msg.CTag{Proc: 5, Seq: 7}
	mod := r.proto.mods[4]
	h := mod.histFor(tag)
	h.failedTry, h.failed = 3, true // attempt 3 already failed here
	r.proto.HandleDir(4, &msg.Msg{
		Kind: msg.Grab, Src: 2, Dst: 4, Tag: tag, TID: 3, GVec: []int{1, 2, 4},
	})
	r.eng.Run()
	// Modules 1 and 2 must have been told.
	if got := r.net.Stats().ByKind[msg.GFailure]; got != 2 {
		t.Fatalf("g_failure multicast = %d messages, want 2", got)
	}
}

// TestSuccessTombstonesAttempts: after a chunk commits, a late stale
// commit_request of an old attempt must not form a ghost group.
func TestSuccessTombstonesAttempts(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	ck := r.mkChunk(0, 1, nil, []sig.Line{2000})
	r.procs[0].submit(ck)
	r.eng.Run()
	if !r.procs[0].done[1] {
		t.Fatal("setup: chunk did not commit")
	}
	// A contention-delayed duplicate of attempt 0 arrives at module 2.
	stale := mkAttempt(0, 1, 0, []int{2}, 2000)
	inject(r, 2, requestMsg(stale, 2))
	if e := r.proto.mods[2].find(stale.tag); e != nil {
		t.Fatalf("ghost group formed from a stale request after success: %+v", e)
	}
}

// TestReservationAgeRule: a reserved module bounces younger chunks but
// passes older ones — the rule that makes cross-reservations deadlock-free.
func TestReservationAgeRule(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	starving := msg.CTag{Proc: 6, Seq: 10}
	mod := r.proto.mods[2]
	mod.reserved = &starving

	older := r.mkChunk(0, 3, nil, []sig.Line{2000}) // seq 3 < 10: older
	r.procs[0].submit(older)
	r.eng.Run()
	if !r.procs[0].done[3] {
		t.Fatal("older chunk bounced by a younger chunk's reservation")
	}

	younger := r.mkChunk(1, 30, nil, []sig.Line{2064}) // seq 30 > 10
	r.procs[1].submit(younger)
	runUntil(r.eng, r.eng.Now()+300)
	if r.procs[1].done[30] {
		t.Fatal("younger chunk passed a reservation")
	}
	if r.proto.Fails.Reserved == 0 {
		t.Fatal("reservation bounce not recorded")
	}
}

// TestReservationSwitchesToOlderStarver: when an older chunk accumulates
// MAX failures, a module reserved for a younger chunk switches to it.
func TestReservationSwitchesToOlderStarver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSquashes = 2
	r := newRig(t, 8, cfg)
	mod := r.proto.mods[3]
	younger := msg.CTag{Proc: 7, Seq: 20}
	older := msg.CTag{Proc: 2, Seq: 4}
	mod.reserved = &younger
	r.proto.noteFailure(mod, older, 0, true)
	r.proto.noteFailure(mod, older, 1, true)
	if mod.reserved == nil || *mod.reserved != older {
		t.Fatalf("reservation did not switch to the older starver: %v", mod.reserved)
	}
}

// TestStaleCommitFailureDiscarded: failure notices of already-retried
// attempts are ignored by the processor — the feedback loop that caused
// exponential retry storms.
func TestStaleCommitFailureDiscarded(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	ck := r.mkChunk(0, 1, nil, []sig.Line{2000})
	ck.Retries = 5
	r.procs[0].submit(ck)
	failuresBefore := r.procs[0].failures
	// A stale failure for attempt 2 arrives.
	r.procs[0].handle(&msg.Msg{Kind: msg.CommitFailure, Src: 2, Dst: 0, Tag: ck.Tag, TID: 2})
	if r.procs[0].failures != failuresBefore {
		t.Fatal("stale commit_failure was not discarded")
	}
	// The current attempt's failure is honored.
	r.procs[0].handle(&msg.Msg{Kind: msg.CommitFailure, Src: 2, Dst: 0, Tag: ck.Tag, TID: 5})
	if r.procs[0].failures != failuresBefore+1 {
		t.Fatal("live commit_failure was discarded")
	}
	r.eng.Run()
}

// TestHighContentionRadixLikeLiveness is the end-to-end regression for the
// whole set of fixes: wide write groups (10+ modules), rapid commits, and
// per-link contention — the exact mix that used to livelock. Every chunk
// must commit and the run must terminate.
func TestHighContentionRadixLikeLiveness(t *testing.T) {
	r := newRig(t, 16, DefaultConfig())
	const perProc = 4
	var submit func(p int, seq uint64)
	submit = func(p int, seq uint64) {
		if seq > perProc {
			return
		}
		var writes []sig.Line
		// Wide scattered write groups like Radix's buckets.
		for d := 0; d < 10; d++ {
			writes = append(writes, sig.Line(((p*7+d*3)%16)*1000+(p*perProc+int(seq))%64))
		}
		ck := r.mkChunk(p, seq, nil, writes)
		r.procs[p].submit(ck)
		var poll func()
		poll = func() {
			if r.procs[p].done[seq] {
				submit(p, seq+1)
				return
			}
			r.eng.After(100, poll)
		}
		r.eng.After(100, poll)
	}
	for p := 0; p < 16; p++ {
		submit(p, 1)
	}
	r.eng.Run()
	for p := 0; p < 16; p++ {
		for seq := uint64(1); seq <= perProc; seq++ {
			if !r.procs[p].done[seq] {
				t.Fatalf("proc %d chunk %d never committed (fails: %+v)", p, seq, r.proto.Fails)
			}
		}
	}
}
