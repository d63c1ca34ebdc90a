// Package kernel is the shared commit-engine kernel: the machinery every
// commit protocol needs but none should re-implement — the commit-stall
// watchdog (a FIFO lane of deadlines with attempt-snapshot probing), duplicate-
// safe ack accounting for retried attempts, and the structured lifecycle
// emission (collector milestones + trace spans) that keeps all four
// protocols' traces and statistics mutually comparable.
//
// A protocol engine embeds a *Kernel built over its dir.Env and calls the
// lifecycle helpers at the same milestones the paper's protocols share:
// Started at commit request, Formed when the commit is authorized
// (group formed / TID held everywhere / occupation complete / arbiter
// grant), HoldBegin/HoldEnd around directory-side holds, and Done at
// completion. The helpers draw no randomness and touch no protocol state,
// so they preserve bit-identical results by construction.
package kernel

import (
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/trace"
)

// Kernel bundles the shared services over one machine environment.
type Kernel struct {
	Env *dir.Env
	WD  Watchdog
}

// New builds a kernel over env with the given commit-stall deadline
// (protocol.WatchdogDisabled turns the watchdog off); probe decides the
// attempts whose deadlines expire. A zero deadline panics: engines take the
// deadline from their option block, whose DefaultConfig sets it.
func New(env *dir.Env, deadline event.Time, probe Prober) *Kernel {
	if deadline == 0 {
		panic("kernel: zero commit deadline")
	}
	k := &Kernel{Env: env, WD: Watchdog{env: env, probe: probe, Deadline: deadline}}
	k.WD.fireFn = k.WD.fire
	return k
}

// Started records a commit request (or re-request) milestone.
func (k *Kernel) Started(proc int, ck *chunk.Chunk) {
	k.Env.Coll.CommitStarted(proc, ck.Tag.Seq, ck.Retries, k.Env.Eng.Now())
}

// Formed records the commit-authorization milestone — the protocol's
// equivalent of ScalableBulk's group formation (Figures 14–17 feed on it) —
// and reports it to the Probe.
func (k *Kernel) Formed(proc int, seq uint64, try int) {
	k.Env.Coll.GroupFormed(proc, seq, try, k.Env.Eng.Now())
	if k.Env.Probe != nil {
		k.Env.Probe.GroupFormed(proc, seq, try)
	}
}

// HoldBegin emits the directory-side hold span opening: module node now
// holds the attempt (signature held / pipeline head / occupancy / in-flight
// table entry).
func (k *Kernel) HoldBegin(node int, tag msg.CTag, try int) {
	k.Env.Trace.Span(trace.KHold, trace.PhaseBegin, node, true, tag, try)
}

// HoldEnd emits the matching hold span close.
func (k *Kernel) HoldEnd(node int, tag msg.CTag, try int) {
	k.Env.Trace.Span(trace.KHold, trace.PhaseEnd, node, true, tag, try)
}

// Done emits the commit-completion instant at node (directory-side for
// protocols that finish at a module, processor-side otherwise).
func (k *Kernel) Done(node int, dirSide bool, tag msg.CTag, try int) {
	k.Env.Trace.Instant(trace.KCommitDone, node, dirSide, tag, try)
}

// Disposition is a watchdog probe's verdict on an attempt whose deadline
// expired.
type Disposition int

const (
	// Closed: the attempt was decided (committed or failed); stand down.
	Closed Disposition = iota
	// Watching: the attempt is live but past its serialization point and
	// cannot be aborted; re-arm and keep watching.
	Watching
	// Stalled: the attempt made no progress; count it, trace it, fail it.
	Stalled
)

// Prober is the protocol side of the watchdog, implemented by every commit
// engine. Probe decides an attempt's fate when its deadline expires; it must
// compare against the (tag, try) snapshot taken at arm time, not live retry
// counters, because a squash can advance them under a pending deadline.
// Stall fails an attempt Probe found Stalled (the protocol's abort and retry
// notification). node is the node the attempt was armed at.
type Prober interface {
	Probe(node int, tag msg.CTag, try int) Disposition
	Stall(node int, tag msg.CTag, try int)
}

// Watchdog schedules commit-stall deadlines. Arming draws no randomness and
// a quiet watchdog touches no state, so an armed-but-silent watchdog leaves
// a fault-free run bit-identical — the property the golden-fingerprint tests
// pin.
//
// Every deadline is arm time + Deadline, so deadlines armed in order expire
// in order: the watchdog keeps them in a FIFO lane and holds one engine
// event, for the lane's head, under the sequence number reserved when the
// head was armed. Each deadline therefore fires at the cycle and in the
// position among same-cycle events that an event scheduled at arm time
// would have, without a closure or an overflow-heap entry per attempt.
type Watchdog struct {
	env   *dir.Env
	probe Prober
	// Deadline is the stall deadline (never zero; WatchdogDisabled disarms
	// Arm entirely).
	Deadline event.Time
	// Fired counts attempts failed by the watchdog; exported through the
	// engine's Stats().
	Fired uint64

	// lane[head:] are the pending deadlines, oldest first; the head's
	// engine event is scheduled. fireFn is fire, bound once.
	lane   []deadline
	head   int
	fireFn func(any)
}

// deadline is one armed attempt: its expiry, the sequence number reserved
// when it was armed, and the snapshot its probe receives.
type deadline struct {
	at      event.Time
	seq     uint64
	node    int
	dirSide bool
	tag     msg.CTag
	try     int
}

// Enabled reports whether Arm schedules anything.
func (w *Watchdog) Enabled() bool { return w.Deadline != protocol.WatchdogDisabled }

// Arm starts the stall deadline for one commit attempt, identified by its
// (tag, try) snapshot taken now. When the deadline expires the prober
// decides: Closed does nothing, Watching re-arms the same attempt one
// deadline later, and Stalled counts the firing, emits the KWatchdog trace
// event at node, and calls Stall.
func (w *Watchdog) Arm(node int, dirSide bool, tag msg.CTag, try int) {
	if !w.Enabled() {
		return
	}
	eng := w.env.Eng
	if w.head > 0 && 2*w.head >= len(w.lane) {
		// Compact: the consumed prefix is at least half the slice.
		w.lane = w.lane[:copy(w.lane, w.lane[w.head:])]
		w.head = 0
	}
	w.lane = append(w.lane, deadline{
		at: eng.Now() + w.Deadline, seq: eng.ReserveSeq(),
		node: node, dirSide: dirSide, tag: tag, try: try,
	})
	if len(w.lane)-w.head == 1 {
		w.schedule()
	}
}

// schedule places the head's engine event under its reserved sequence number.
func (w *Watchdog) schedule() {
	d := &w.lane[w.head]
	w.env.Eng.AtArgSeq(d.at, d.seq, w.fireFn, nil)
}

// fire expires the head deadline and schedules the next one.
func (w *Watchdog) fire(any) {
	d := w.lane[w.head]
	w.head++
	if w.head < len(w.lane) {
		w.schedule()
	}
	switch w.probe.Probe(d.node, d.tag, d.try) {
	case Closed:
	case Watching:
		w.Arm(d.node, d.dirSide, d.tag, d.try)
	case Stalled:
		w.Fired++
		w.env.Trace.Emit(trace.Event{
			Kind: trace.KWatchdog, Node: d.node, Dir: d.dirSide,
			Tag: d.tag, Try: d.try, Cause: trace.CauseWatchdog,
		})
		w.probe.Stall(d.node, d.tag, d.try)
	}
}
