// Package check is an online invariant checker for the simulated commit
// protocols. It observes the machine through two channels: the dir.Probe it
// implements (commit requests, serialization points, attempt ends,
// retirements, committed-write applications and ScalableBulk's CST
// occupancy) and the mesh's send/deliver taps below the directory. It
// records a violation the moment an invariant breaks — with the fault
// injector active, this is what turns "the run completed" into "the run
// completed and the protocol behaved". It also keeps the committed-write
// multiset, which the differential tests and the model checker compare
// across protocols and schedules.
//
// Invariants:
//
//	I1 CST occupancy accounting: a module occupancy is acquired at most once
//	   per attempt, released only if held, and no occupancy survives the run.
//	I2 Program order: each processor commits its chunks in strictly
//	   ascending sequence order, exactly once each, and only after a commit
//	   request and a successful group formation for that chunk.
//	I3 Invalidation pairing: an invalidation ack delivered to a collector
//	   must answer an invalidation that was actually sent to that responder
//	   (duplicated acks are legal — duplicated *phantom* acks are not).
//	I4 Liveness: at the end of the run every processor committed exactly
//	   chunks [0, target): its full target and nothing past it.
//	I5 Write visibility: directory write applications only come from
//	   processors that reached a serialization point (formed a group).
package check

import (
	"fmt"
	"maps"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
)

// maxViolations bounds the report; past it only the counter moves.
const maxViolations = 64

type procSeq struct {
	proc int
	seq  uint64
}

type occKey struct {
	module int
	tag    msg.CTag
	try    int
}

// WriteKey names one committed write: the line and the core that wrote it.
type WriteKey struct {
	Line   sig.Line
	Writer int
}

type invKey struct {
	kind      msg.Kind // the invalidation kind (not the ack kind)
	tag       msg.CTag
	responder int
}

// Checker accumulates invariant violations. It implements dir.Probe. All
// methods are safe on the simulator's single event thread only.
type Checker struct {
	violations []Violation
	Dropped    int // violations past maxViolations

	held      map[occKey]bool
	requested map[procSeq]bool
	formed    map[procSeq]bool
	committed map[procSeq]bool
	lastSeq   map[int]uint64
	hasLast   map[int]bool
	sentInv   map[invKey]bool
	everForm  map[int]bool
	writes    map[WriteKey]int
}

var _ dir.Probe = (*Checker)(nil)

// New builds a checker for an n-node machine.
func New(n int) *Checker {
	return &Checker{
		held:      make(map[occKey]bool),
		requested: make(map[procSeq]bool),
		formed:    make(map[procSeq]bool),
		committed: make(map[procSeq]bool),
		lastSeq:   make(map[int]uint64),
		hasLast:   make(map[int]bool),
		sentInv:   make(map[invKey]bool),
		everForm:  make(map[int]bool),
		writes:    make(map[WriteKey]int),
	}
}

func (c *Checker) violate(inv Invariant, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.Dropped++
		return
	}
	c.violations = append(c.violations, Violation{Inv: inv, Msg: fmt.Sprintf(format, args...)})
}

// Count returns the number of violations recorded so far (dropped included).
// The model-checking explorer polls it after every delivery to stop a failing
// schedule at the exact step the first invariant broke.
func (c *Checker) Count() int { return len(c.violations) + c.Dropped }

// CommitRequested implements dir.Probe.
func (c *Checker) CommitRequested(proc int, ck *chunk.Chunk) {
	c.requested[procSeq{proc, ck.Tag.Seq}] = true
}

// ChunkCommitted implements dir.Probe: the exactly-once, in-order,
// requested-and-formed checks (I2).
func (c *Checker) ChunkCommitted(proc int, seq uint64, t event.Time) {
	k := procSeq{proc, seq}
	if c.committed[k] {
		c.violate(I2, "P%d committed chunk %d twice (t=%d)", proc, seq, t)
	}
	c.committed[k] = true
	if !c.requested[k] {
		c.violate(I2, "P%d committed chunk %d without a commit request", proc, seq)
	}
	if !c.formed[k] {
		c.violate(I2, "P%d committed chunk %d without forming a group", proc, seq)
	}
	if c.hasLast[proc] && seq <= c.lastSeq[proc] {
		c.violate(I2, "P%d committed chunk %d after chunk %d: program order broken",
			proc, seq, c.lastSeq[proc])
	}
	c.lastSeq[proc] = seq
	c.hasLast[proc] = true
}

// Held implements dir.Probe: a CST occupancy acquisition (I1).
func (c *Checker) Held(module int, tag msg.CTag, try int) {
	k := occKey{module, tag, try}
	if c.held[k] {
		c.violate(I1, "D%d held twice by %s try %d", module, tag, try)
	}
	c.held[k] = true
}

// Released implements dir.Probe: a CST occupancy release (I1).
func (c *Checker) Released(module int, tag msg.CTag, try int) {
	k := occKey{module, tag, try}
	if !c.held[k] {
		c.violate(I1, "D%d released by %s try %d without being held", module, tag, try)
	}
	delete(c.held, k)
}

// GroupFormed implements dir.Probe: an attempt reached its serialization
// point.
func (c *Checker) GroupFormed(proc int, seq uint64, try int) {
	c.formed[procSeq{proc, seq}] = true
	c.everForm[proc] = true
}

// CommitEnded implements dir.Probe. A successful end after the chunk
// already committed would be a double serialization (I2).
func (c *Checker) CommitEnded(proc int, seq uint64, try int, success bool) {
	if success && c.committed[procSeq{proc, seq}] {
		c.violate(I2, "P%d chunk %d ended successfully twice", proc, seq)
	}
}

// WriteApplied implements dir.Probe: a committed write reaches the
// directory (I5), and the committed-write multiset counts it.
func (c *Checker) WriteApplied(l sig.Line, writer int) {
	if !c.everForm[writer] {
		c.violate(I5, "line %d written by P%d which never formed a group", l, writer)
	}
	c.writes[WriteKey{l, writer}]++
}

// Writes returns a copy of the committed-write multiset: how many times each
// (line, writer) pair was applied to the directory so far.
func (c *Checker) Writes() map[WriteKey]int { return maps.Clone(c.writes) }

// invalPair maps an ack kind to the invalidation kind it answers.
func invalPair(k msg.Kind) (msg.Kind, bool) {
	switch k {
	case msg.BulkInvAck:
		return msg.BulkInv, true
	case msg.SeqInvalAck:
		return msg.SeqInval, true
	case msg.ArbInvAck:
		return msg.ArbInv, true
	case msg.TCCInvalAck:
		return msg.TCCInval, true
	}
	return 0, false
}

func isInval(k msg.Kind) bool {
	switch k {
	case msg.BulkInv, msg.SeqInval, msg.ArbInv, msg.TCCInval:
		return true
	}
	return false
}

// Sent taps mesh.Network.OnSend: record invalidations on the wire.
func (c *Checker) Sent(m *msg.Msg) {
	if isInval(m.Kind) {
		c.sentInv[invKey{m.Kind, m.Tag, m.Dst}] = true
	}
}

// Delivered taps mesh.Network.OnDeliver: an arriving ack must answer an
// invalidation that was really sent to that responder (I3). The injector
// duplicates deliveries, never invents them, so a miss here means a protocol
// fabricated or misrouted an ack.
func (c *Checker) Delivered(m *msg.Msg) {
	if inv, ok := invalPair(m.Kind); ok {
		if !c.sentInv[invKey{inv, m.Tag, m.Src}] {
			c.violate(I3, "%s from P%d for %s answers no invalidation", m.Kind, m.Src, m.Tag)
		}
	}
}

// Finish runs the end-of-run checks (I1 leaks, I4 liveness): every processor
// committed exactly chunks [0, perProc) and no CST occupancy is still held.
// With I2's exactly-once, ascending order, a chunk past the target shows as
// the processor's last commit.
func (c *Checker) Finish(procs, perProc int) {
	for p := 0; p < procs; p++ {
		n := 0
		for seq := uint64(0); seq < uint64(perProc); seq++ {
			if c.committed[procSeq{p, seq}] {
				n++
			}
		}
		if n != perProc {
			c.violate(I4, "P%d committed %d of %d chunks", p, n, perProc)
		}
		if c.hasLast[p] && c.lastSeq[p] >= uint64(perProc) {
			c.violate(I4, "P%d committed chunk %d past its target of %d", p, c.lastSeq[p], perProc)
		}
	}
	for k := range c.held {
		c.violate(I1, "D%d still held by %s try %d at end of run", k.module, k.tag, k.try)
	}
}

// Violations returns the recorded violations (nil when clean).
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Err folds the violations into one error, nil when the run was clean. The
// concrete type is *ViolationError; errors.Is(err, ErrViolation) and
// errors.Is(err, check.I2) both match.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &ViolationError{Violations: c.Violations(), Dropped: c.Dropped}
}
