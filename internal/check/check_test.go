package check

import (
	"errors"
	"strings"
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/msg"
)

func mkChunk(proc int, seq uint64) *chunk.Chunk {
	return &chunk.Chunk{Tag: msg.CTag{Proc: proc, Seq: seq}}
}

// commit drives the legal milestone sequence for one chunk.
func commit(c *Checker, proc int, seq uint64) {
	c.CommitRequested(proc, mkChunk(proc, seq))
	c.GroupFormed(proc, seq, 0)
	c.ChunkCommitted(proc, seq, 20)
}

// wantInvariant asserts that the checker's error identifies inv (and only
// matches the invariants in invs), via the errors.Is contract — no string
// matching on message text.
func wantInvariant(t *testing.T, c *Checker, invs ...Invariant) *ViolationError {
	t.Helper()
	err := c.Err()
	if err == nil {
		t.Fatalf("violation not detected")
	}
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("error does not match ErrViolation: %v", err)
	}
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("error is not a *ViolationError: %T", err)
	}
	for _, inv := range invs {
		if !errors.Is(err, inv) {
			t.Errorf("errors.Is(err, %v) = false, violations: %v", inv, ve.Violations)
		}
	}
	for inv := I1; inv <= I5; inv++ {
		want := false
		for _, w := range invs {
			if w == inv {
				want = true
			}
		}
		if !want && errors.Is(err, inv) {
			t.Errorf("errors.Is(err, %v) = true for an invariant that did not break: %v", inv, ve.Violations)
		}
	}
	return ve
}

func TestCleanRunHasNoViolations(t *testing.T) {
	c := New(2)
	for p := 0; p < 2; p++ {
		for s := uint64(0); s < 3; s++ {
			commit(c, p, s)
		}
	}
	c.Finish(2, 3)
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported: %v", err)
	}
	if c.Count() != 0 {
		t.Fatalf("Count = %d on a clean run", c.Count())
	}
}

// TestInvariantI1Occupancy: double hold, orphan release, and an end-of-run
// leak all report I1.
func TestInvariantI1Occupancy(t *testing.T) {
	c := New(4)
	tag := msg.CTag{Proc: 1, Seq: 7}
	c.Held(2, tag, 0)
	c.Held(2, tag, 0) // double hold
	c.Released(2, tag, 0)
	c.Released(2, tag, 0) // orphan release
	c.Held(3, tag, 1)     // leaked at finish
	c.Finish(0, 0)
	ve := wantInvariant(t, c, I1)
	if len(ve.Violations) != 3 {
		t.Fatalf("want double-hold + orphan-release + leak, got %v", ve.Violations)
	}
	for _, v := range ve.Violations {
		if v.Inv != I1 {
			t.Errorf("violation %v attributed to %v, want I1", v.Msg, v.Inv)
		}
	}
}

// TestInvariantI2DoubleCommit: committing the same chunk twice reports I2.
func TestInvariantI2DoubleCommit(t *testing.T) {
	c := New(1)
	commit(c, 0, 0)
	c.ChunkCommitted(0, 0, 30)
	wantInvariant(t, c, I2)
}

// TestInvariantI2ProgramOrder: out-of-order commits report I2.
func TestInvariantI2ProgramOrder(t *testing.T) {
	c := New(1)
	commit(c, 0, 1)
	commit(c, 0, 0)
	wantInvariant(t, c, I2)
}

// TestInvariantI2CommitWithoutRequestOrFormation: a commit with no request
// and no formation reports both I2 breaks.
func TestInvariantI2CommitWithoutRequestOrFormation(t *testing.T) {
	c := New(1)
	c.ChunkCommitted(0, 0, 5)
	ve := wantInvariant(t, c, I2)
	if len(ve.Violations) != 2 {
		t.Fatalf("want request + formation violations, got %v", ve.Violations)
	}
}

// TestInvariantI2DoubleSuccess: a successful attempt end after the chunk
// already committed reports I2.
func TestInvariantI2DoubleSuccess(t *testing.T) {
	c := New(1)
	commit(c, 0, 0)
	c.CommitEnded(0, 0, 1, true)
	wantInvariant(t, c, I2)
}

// TestInvariantI3PhantomAck: an ack answering no real invalidation reports
// I3; duplicated legal acks do not.
func TestInvariantI3PhantomAck(t *testing.T) {
	c := New(4)
	tag := msg.CTag{Proc: 0, Seq: 1}
	c.Sent(&msg.Msg{Kind: msg.BulkInv, Src: 0, Dst: 2, Tag: tag})
	// Legal ack (and a duplicate of it — duplication is not a violation).
	ack := &msg.Msg{Kind: msg.BulkInvAck, Src: 2, Dst: 0, Tag: tag}
	c.Delivered(ack)
	c.Delivered(ack)
	if err := c.Err(); err != nil {
		t.Fatalf("legal ack flagged: %v", err)
	}
	// Phantom: node 3 was never sent the invalidation.
	c.Delivered(&msg.Msg{Kind: msg.BulkInvAck, Src: 3, Dst: 0, Tag: tag})
	wantInvariant(t, c, I3)
}

// TestInvariantI4LivenessShortfall: a processor short of its chunk target
// reports I4.
func TestInvariantI4LivenessShortfall(t *testing.T) {
	c := New(1)
	commit(c, 0, 0)
	c.Finish(1, 2)
	wantInvariant(t, c, I4)
}

// TestInvariantI4PastTarget: a processor that commits a chunk past its
// target reports I4, even though it committed every chunk below it in order.
func TestInvariantI4PastTarget(t *testing.T) {
	c := New(1)
	for seq := uint64(0); seq < 3; seq++ {
		commit(c, 0, seq)
	}
	c.Finish(1, 2)
	wantInvariant(t, c, I4)
}

// TestInvariantI5ApplyWithoutFormation: a directory write from a processor
// that never reached a serialization point reports I5.
func TestInvariantI5ApplyWithoutFormation(t *testing.T) {
	c := New(2)
	c.WriteApplied(42, 1)
	wantInvariant(t, c, I5)
}

// TestWritesCountsApplications: the committed-write multiset counts every
// application of a (line, writer) pair, and the copy it returns is the
// caller's.
func TestWritesCountsApplications(t *testing.T) {
	c := New(2)
	commit(c, 1, 0)
	c.WriteApplied(42, 1)
	c.WriteApplied(42, 1)
	c.WriteApplied(43, 1)
	w := c.Writes()
	if w[WriteKey{42, 1}] != 2 || w[WriteKey{43, 1}] != 1 || len(w) != 2 {
		t.Fatalf("Writes = %v, want {42/P1: 2, 43/P1: 1}", w)
	}
	w[WriteKey{44, 0}] = 1
	if len(c.Writes()) != 2 {
		t.Fatal("Writes returned the checker's own map")
	}
}

// TestViolationErrorCarriesDump: the system layer attaches the machine dump
// to the folded error; the rendered error must include it so a violation
// report is actionable without re-running.
func TestViolationErrorCarriesDump(t *testing.T) {
	c := New(1)
	c.ChunkCommitted(0, 0, 5)
	err := c.Err()
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("not a *ViolationError: %T", err)
	}
	ve.Dump = "P0 stuck committing chunk 0"
	if !strings.Contains(ve.Error(), "P0 stuck committing chunk 0") {
		t.Fatalf("dump missing from rendered error:\n%s", ve.Error())
	}
	if !strings.Contains(ve.Render(), "I2:") {
		t.Fatalf("Render does not name the invariant:\n%s", ve.Render())
	}
}

// TestCountTracksDropped: Count includes violations past the recording cap.
func TestCountTracksDropped(t *testing.T) {
	c := New(1)
	for i := 0; i < maxViolations+5; i++ {
		c.WriteApplied(1, 0)
	}
	if c.Count() != maxViolations+5 {
		t.Fatalf("Count = %d, want %d", c.Count(), maxViolations+5)
	}
	var ve *ViolationError
	if !errors.As(c.Err(), &ve) || ve.Dropped != 5 {
		t.Fatalf("Dropped not folded into the error: %+v", ve)
	}
}
