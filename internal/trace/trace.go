// Package trace is the simulator's structured observability layer: typed
// span and instant events for the chunk commit lifecycle (execute →
// commit-request → group formation → grab/occupied → commit or squash, with
// squash causes and preempting-chunk causality links), NoC message
// send/deliver events, and fault-injection events.
//
// Emission is zero-cost when disabled: a nil *Tracer is a valid tracer whose
// methods return immediately without allocating, so the DES hot loop pays a
// single nil check per site. Formatting is deferred entirely to sinks — the
// Event struct is all-scalar (no strings, no fmt) and handed to the Sink by
// value.
//
// A tracer hands its sink every event, read-path NoC traffic included.
// Sinks (sinks.go, perfetto.go): a text formatter compatible with the old
// printf trace, a deterministic JSONL writer, a Chrome trace-event/Perfetto
// JSON exporter, a fixed-size ring-buffer flight recorder, and a filter
// combinator that also drops read-path messages, by far the most numerous
// events, unless asked to keep them.
package trace

import (
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
)

// Kind enumerates every event type the simulator emits.
type Kind uint8

const (
	// KindNone is the zero Kind; no event carries it.
	KindNone Kind = iota

	// --- Spans (emitted with PhaseBegin / PhaseEnd) ---

	// KExec: a core executes a chunk. Ends on completion or on any of the
	// squash/abandon paths (Cause says which).
	KExec
	// KCommit: one commit attempt, from the processor's commit request to
	// its success or failure notification (OK distinguishes them).
	KCommit
	// KHold: a directory module (or the centralized agent) is held by a
	// chunk's group — ScalableBulk stHeld, TCC head-of-pipeline, SEQ-PRO
	// occupancy, BulkSC arbiter in-flight entry.
	KHold

	// --- Commit-lifecycle instants ---

	// KCommitReq: a directory module received a commit_request.
	KCommitReq
	// KGroupFormed: the attempt's group formed (commit authorized).
	KGroupFormed
	// KGroupFail: group formation failed at a module (Cause says why).
	KGroupFail
	// KCollision: two forming groups collided; Tag lost to Other.
	KCollision
	// KReserved: a module bounced Tag because it is reserved for the
	// starving chunk Other.
	KReserved
	// KRecall: an OCI commit_recall for Tag was received or looked out for.
	KRecall
	// KStaleClear: a stale pending entry for Tag was cleared at a module.
	KStaleClear
	// KSquash: a processor squashed chunk Tag (Cause = conflict or
	// aliasing; Other = the preempting committer's chunk when known).
	KSquash
	// KRefused: the processor learned its commit attempt was refused.
	KRefused
	// KWatchdog: a stall watchdog abandoned the attempt.
	KWatchdog
	// KCommitDone: the processor learned its commit completed.
	KCommitDone

	// --- NoC ---

	// KSend: a message was injected into the network.
	KSend
	// KDeliver: a message arrived and is about to run its handler.
	KDeliver

	// --- Fault injection ---

	// KFaultDelay: the injector jittered a delivery.
	KFaultDelay
	// KFaultDup: the injector duplicated a delivery.
	KFaultDup
	// KFaultRetransmit: the injector deferred a delivery to a retransmit.
	KFaultRetransmit
	// KFaultHot: the injector applied a hot-node delay.
	KFaultHot

	numKinds
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(numKinds)

var kindNames = [...]string{
	KindNone:         "none",
	KExec:            "exec",
	KCommit:          "commit",
	KHold:            "hold",
	KCommitReq:       "commit_req",
	KGroupFormed:     "group_formed",
	KGroupFail:       "group_fail",
	KCollision:       "collision",
	KReserved:        "reserved",
	KRecall:          "recall",
	KStaleClear:      "stale_clear",
	KSquash:          "squash",
	KRefused:         "refused",
	KWatchdog:        "watchdog",
	KCommitDone:      "commit_done",
	KSend:            "send",
	KDeliver:         "deliver",
	KFaultDelay:      "fault_delay",
	KFaultDup:        "fault_dup",
	KFaultRetransmit: "fault_retransmit",
	KFaultHot:        "fault_hot",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// KindByName resolves a kind name ("commit", "squash", ...) for CLI filters.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name && Kind(k) != KindNone {
			return Kind(k), true
		}
	}
	return KindNone, false
}

// Span reports whether the kind is a span (emitted with begin/end phases).
func (k Kind) Span() bool { return k == KExec || k == KCommit || k == KHold }

// Phase distinguishes span boundaries from instants.
type Phase uint8

const (
	// PhaseInstant is the zero Phase: a point event.
	PhaseInstant Phase = iota
	// PhaseBegin opens a span.
	PhaseBegin
	// PhaseEnd closes a span.
	PhaseEnd
)

func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	}
	return "I"
}

// Cause classifies why a span ended or an instant fired.
type Cause uint8

const (
	// CauseNone: success, or no cause applies.
	CauseNone Cause = iota
	// CauseConflict: squash on a true data conflict.
	CauseConflict
	// CauseAliasing: squash on signature aliasing (false positive).
	CauseAliasing
	// CauseCollision: the group lost a formation collision.
	CauseCollision
	// CauseReserved: bounced by a starvation reservation.
	CauseReserved
	// CauseRecalled: cancelled by an OCI commit_recall.
	CauseRecalled
	// CauseWatchdog: abandoned by a stall watchdog.
	CauseWatchdog
	// CauseDenied: refused by an arbiter/vendor decision.
	CauseDenied
	// CauseAbandoned: the run reached its chunk target and dropped the
	// in-progress work.
	CauseAbandoned
	// CauseStale: a stale entry or late message for a dead attempt.
	CauseStale

	numCauses
)

var causeNames = [...]string{
	CauseNone:      "",
	CauseConflict:  "conflict",
	CauseAliasing:  "aliasing",
	CauseCollision: "collision",
	CauseReserved:  "reserved",
	CauseRecalled:  "recalled",
	CauseWatchdog:  "watchdog",
	CauseDenied:    "denied",
	CauseAbandoned: "abandoned",
	CauseStale:     "stale",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause?"
}

// Event is one trace record. It is all-scalar so emission never allocates
// and sinks receive it by value; rendering (text, JSON, Perfetto) happens
// entirely in the sink.
type Event struct {
	T     event.Time // cycle the event happened
	Kind  Kind
	Phase Phase
	Cause Cause
	// Node is the tile where the event happened; Dir says which half of the
	// tile (directory module vs processor) — sinks map this to tracks.
	Node int
	Dir  bool
	// Tag/Try identify the subject chunk and commit attempt.
	Tag msg.CTag
	Try int
	// Other, when HasOther, is a causally related chunk: the preempting
	// committer of a squash, the winner of a collision, the reservation
	// holder of a bounce.
	Other    msg.CTag
	HasOther bool
	// OK reports success on KCommit end events.
	OK bool
	// Message payload for KSend/KDeliver/fault events.
	MsgKind  msg.Kind
	Src, Dst int
}

// Sink consumes events. Implementations are single-threaded like the
// simulator; Close flushes buffered output.
type Sink interface {
	Event(Event)
	Close() error
}

// Tracer stamps events with the engine clock and hands them to its sink. A
// nil *Tracer is the disabled tracer: every method returns immediately, so
// instrumentation sites cost one nil check and zero allocations.
type Tracer struct {
	eng  *event.Engine
	sink Sink
}

// New builds a tracer over the engine clock. A nil sink yields a nil (i.e.
// disabled) tracer.
func New(eng *event.Engine, sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{eng: eng, sink: sink}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit stamps the current cycle on e and hands it to the sink.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.T = t.eng.Now()
	t.sink.Event(e)
}

// Span emits a begin/end boundary of span kind k at a tile.
func (t *Tracer) Span(k Kind, ph Phase, node int, dir bool, tag msg.CTag, try int) {
	if t == nil {
		return
	}
	t.sink.Event(Event{T: t.eng.Now(), Kind: k, Phase: ph, Node: node, Dir: dir, Tag: tag, Try: try})
}

// Instant emits a point event at a tile.
func (t *Tracer) Instant(k Kind, node int, dir bool, tag msg.CTag, try int) {
	if t == nil {
		return
	}
	t.sink.Event(Event{T: t.eng.Now(), Kind: k, Node: node, Dir: dir, Tag: tag, Try: try})
}

// MsgSend records a message injection (on the source tile's track).
func (t *Tracer) MsgSend(m *msg.Msg) {
	if t == nil {
		return
	}
	t.sink.Event(Event{
		T: t.eng.Now(), Kind: KSend, Node: m.Src, Dir: senderIsDir(m.Kind),
		Tag: m.Tag, MsgKind: m.Kind, Src: m.Src, Dst: m.Dst,
	})
}

// MsgDeliver records a message arrival (on the destination tile's track), at
// its actual delivery time — after contention retiming and fault rewrites —
// so printed cycle numbers match arrival order.
func (t *Tracer) MsgDeliver(m *msg.Msg) {
	if t == nil {
		return
	}
	t.sink.Event(Event{
		T: t.eng.Now(), Kind: KDeliver, Node: m.Dst, Dir: m.Kind.SideOf() == msg.SideDir,
		Tag: m.Tag, MsgKind: m.Kind, Src: m.Src, Dst: m.Dst,
	})
}

// Fault records a fault-injection action on message m.
func (t *Tracer) Fault(k Kind, m *msg.Msg) {
	if t == nil {
		return
	}
	t.sink.Event(Event{
		T: t.eng.Now(), Kind: k, Node: m.Dst, Dir: m.Kind.SideOf() == msg.SideDir,
		Tag: m.Tag, MsgKind: m.Kind, Src: m.Src, Dst: m.Dst,
	})
}

// senderIsDir reports whether a message kind originates at the directory
// half of a tile (or the centralized agent hosted there). Used only to place
// send events on the right display track.
func senderIsDir(k msg.Kind) bool {
	switch k {
	case msg.Grab, msg.GFailure, msg.GSuccess, msg.CommitFailure,
		msg.CommitSuccess, msg.BulkInv, msg.CommitDone,
		msg.ReadMemReply, msg.ReadShReply, msg.ReadDirtyFwd, msg.ReadNack,
		msg.TIDReply, msg.TCCProbeAck, msg.TCCInval, msg.TCCAck,
		msg.SeqGrant, msg.ArbGrant, msg.ArbDeny:
		return true
	}
	return false
}
