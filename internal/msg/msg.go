// Package msg defines every message that travels on the simulated on-chip
// network: the ten ScalableBulk protocol messages of Table 1 of the paper,
// the read-path coherence messages, and the baseline protocols' messages
// (Scalable TCC's TID/probe/skip/mark, SEQ-PRO's occupy/release, and BulkSC's
// arbiter traffic).
//
// Each message kind carries a traffic Class and a size in flits, which feed
// the Figure 18/19 traffic characterization: messages that carry signatures
// are LargeCMessage; all other commit-protocol messages are SmallCMessage.
package msg

import (
	"fmt"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/sig"
)

// CTag is the unique tag of a chunk: the originating processor ID
// concatenated with a processor-local sequence number (Table 1).
type CTag struct {
	Proc int
	Seq  uint64
}

func (t CTag) String() string { return fmt.Sprintf("P%d.%d", t.Proc, t.Seq) }

// Kind enumerates every message type in the system.
type Kind int

const (
	// --- ScalableBulk commit protocol (Table 1 of the paper) ---

	// CommitRequest: processor requests to commit a chunk; sent to all
	// directory modules in the chunk's read- and write-sets.
	// Payload: CTag, WSig, RSig, g_vec.
	CommitRequest Kind = iota
	// Grab ("g"): source directory is part of a group and tries to grab the
	// destination module into the same group. Payload: CTag, inval_vec.
	Grab
	// GFailure: a module detected that group formation failed and notifies
	// all modules in the group.
	GFailure
	// GSuccess: the leader informs all modules that the group formed.
	GSuccess
	// CommitFailure: leader → committing processor: the commit failed.
	CommitFailure
	// CommitSuccess: leader → committing processor: the commit succeeded.
	CommitSuccess
	// BulkInv: leader → sharer processors: bulk invalidation carrying the
	// committing chunk's W signature (also used for disambiguation).
	BulkInv
	// BulkInvAck: sharer processor → leader: invalidation acknowledged.
	// May piggy-back a CommitRecall (§3.3).
	BulkInvAck
	// CommitDone: leader releases all modules in the group and requests
	// signature deallocation. May piggy-back a CommitRecall (§3.4).
	CommitDone
	// CommitRecall: a processor whose chunk was squashed under Optimistic
	// Commit Initiation cancels its in-flight commit. Always piggy-backed
	// (on BulkInvAck, then on CommitDone); modeled as a standalone kind so
	// traces show it, but it never travels alone.
	CommitRecall

	// --- Read path (conventional directory transactions between commits) ---

	// ReadReq: core → home directory, cache-line read miss.
	ReadReq
	// ReadMemReply: directory → core, line served from memory (MemRd class).
	ReadMemReply
	// ReadShReply: directory → core, line served by a remote cache holding
	// it shared (RemoteShRd class).
	ReadShReply
	// ReadDirtyFwd: directory → owner tile, forward of a read that hit a
	// dirty remote line (RemoteDirtyRd class).
	ReadDirtyFwd
	// ReadDirtyReply: owner → core, dirty line data (RemoteDirtyRd class).
	ReadDirtyReply
	// ReadNack: directory → core, read bounced because the line is inside a
	// committing chunk's W signature (§3.1); the core retries.
	ReadNack

	// --- Scalable TCC baseline ---

	// TIDRequest: committing processor → centralized TID vendor.
	TIDRequest
	// TIDReply: vendor → processor, the allocated transaction ID.
	TIDReply
	// TCCProbe: processor → each directory in the chunk's read/write sets.
	TCCProbe
	// TCCProbeAck: directory → processor, the TID is at the head of this
	// module's pipeline; all earlier transactions here are done.
	TCCProbeAck
	// TCCSkip: processor → every other directory (broadcast filler).
	TCCSkip
	// TCCCommit: processor → probed directory, begin the commit phase
	// (sent once every probe ack arrived; announces the mark count).
	TCCCommit
	// TCCMark: processor → directory, one per written cache line.
	TCCMark
	// TCCInval: directory → sharer processor, per-line invalidation.
	TCCInval
	// TCCInvalAck: sharer processor → directory.
	TCCInvalAck
	// TCCAck: directory → committing processor, this module's part is done.
	TCCAck

	// --- SEQ-PRO baseline ---

	// SeqOccupy: processor → directory, occupy request (in ascending order).
	SeqOccupy
	// SeqGrant: directory → processor, module occupied.
	SeqGrant
	// SeqInval: committing processor → sharer processor, W-signature
	// invalidation once all modules are occupied.
	SeqInval
	// SeqInvalAck: sharer → committing processor.
	SeqInvalAck
	// SeqRelease: processor → directory, release an occupied module.
	SeqRelease

	// --- BulkSC baseline ---

	// ArbRequest: processor → central arbiter, permission to commit
	// (carries R and W signatures).
	ArbRequest
	// ArbGrant: arbiter → processor, OK to commit.
	ArbGrant
	// ArbDeny: arbiter → processor, not OK; retry later.
	ArbDeny
	// ArbInv: committing processor → every other processor, W-signature
	// invalidation and disambiguation.
	ArbInv
	// ArbInvAck: processor → committing processor.
	ArbInvAck
	// ArbDone: processor → central arbiter, commit finished; the arbiter
	// deallocates the chunk's signatures.
	ArbDone

	numKinds
)

var kindNames = [...]string{
	CommitRequest: "commit_request",
	Grab:          "g",
	GFailure:      "g_failure",
	GSuccess:      "g_success",
	CommitFailure: "commit_failure",
	CommitSuccess: "commit_success",
	BulkInv:       "bulk_inv",
	BulkInvAck:    "bulk_inv_ack",
	CommitDone:    "commit_done",
	CommitRecall:  "commit_recall",

	ReadReq:        "read_req",
	ReadMemReply:   "read_mem_reply",
	ReadShReply:    "read_sh_reply",
	ReadDirtyFwd:   "read_dirty_fwd",
	ReadDirtyReply: "read_dirty_reply",
	ReadNack:       "read_nack",

	TIDRequest:  "tid_request",
	TIDReply:    "tid_reply",
	TCCProbe:    "tcc_probe",
	TCCProbeAck: "tcc_probe_ack",
	TCCSkip:     "tcc_skip",
	TCCCommit:   "tcc_commit",
	TCCMark:     "tcc_mark",
	TCCInval:    "tcc_inval",
	TCCInvalAck: "tcc_inval_ack",
	TCCAck:      "tcc_ack",

	SeqOccupy:   "seq_occupy",
	SeqGrant:    "seq_grant",
	SeqInval:    "seq_inval",
	SeqInvalAck: "seq_inval_ack",
	SeqRelease:  "seq_release",

	ArbRequest: "arb_request",
	ArbGrant:   "arb_grant",
	ArbDeny:    "arb_deny",
	ArbInv:     "arb_inv",
	ArbInvAck:  "arb_inv_ack",
	ArbDone:    "arb_done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NumKinds is the number of defined message kinds.
const NumKinds = int(numKinds)

// Side says which half of a tile consumes a message kind: the processor
// (core + private caches) or the directory module / centralized agent that
// shares the tile. The tile demultiplexer routes on this.
type Side int

const (
	// SideDir: consumed by the tile's directory module (or the central
	// arbiter / TID vendor hosted on that tile).
	SideDir Side = iota
	// SideProc: consumed by the tile's processor.
	SideProc
)

// SideOf returns the consuming side for a message kind.
func (k Kind) SideOf() Side {
	switch k {
	case CommitFailure, CommitSuccess, BulkInv,
		ReadMemReply, ReadShReply, ReadDirtyReply, ReadNack,
		TIDReply, TCCProbeAck, TCCInval, TCCAck,
		SeqGrant, SeqInval, SeqInvalAck,
		ArbGrant, ArbDeny, ArbInv, ArbInvAck:
		return SideProc
	default:
		return SideDir
	}
}

// Class buckets messages for the Figure 18/19 traffic characterization.
type Class int

const (
	// ClassMemRd: reads of a cache line from memory.
	ClassMemRd Class = iota
	// ClassRemoteShRd: reads served by a remote cache in state shared.
	ClassRemoteShRd
	// ClassRemoteDirtyRd: reads served by a remote cache in state dirty.
	ClassRemoteDirtyRd
	// ClassLargeC: commit-protocol messages that carry signatures.
	ClassLargeC
	// ClassSmallC: all other commit-protocol messages.
	ClassSmallC
	// NumClasses is the number of traffic classes.
	NumClasses
)

var classNames = [...]string{"MemRd", "RemoteShRd", "RemoteDirtyRd", "LargeCMessage", "SmallCMessage"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ReadPath reports whether a kind is read-path traffic — a miss, its
// replies, forward and nack — rather than commit-protocol traffic.
func (k Kind) ReadPath() bool {
	switch k {
	case ReadReq, ReadMemReply, ReadShReply, ReadDirtyFwd, ReadDirtyReply, ReadNack:
		return true
	}
	return false
}

// ClassOf returns the traffic class of a message kind. Read requests and
// nacks are attributed to MemRd here; the stats package reconstructs the
// exact per-transaction classes from reply counts (see stats.TrafficFrom).
func (k Kind) ClassOf() Class {
	switch k {
	case ReadReq, ReadNack, ReadMemReply:
		return ClassMemRd
	case ReadShReply:
		return ClassRemoteShRd
	case ReadDirtyFwd, ReadDirtyReply:
		return ClassRemoteDirtyRd
	case CommitRequest, BulkInv, ArbRequest, ArbInv, SeqInval:
		// These carry signatures (Table 1 / §6.5).
		return ClassLargeC
	default:
		return ClassSmallC
	}
}

// Flit sizing. A flit is 16 bytes; small control messages fit in one flit,
// and a compressed 2 Kbit signature adds sigFlits flits. commit_request
// carries both R and W signatures (Table 1), bulk_inv carries one W.
const (
	SmallFlits = 1
	sigFlits   = 8 // 2 Kbit compressed ≈ 128 B ≈ 8 flits
)

// FlitsOf returns the size of a message kind in flits.
func (k Kind) FlitsOf() int {
	switch k {
	case CommitRequest, ArbRequest:
		return SmallFlits + 2*sigFlits // R and W signatures
	case BulkInv, ArbInv, SeqInval:
		return SmallFlits + sigFlits // W signature
	case ReadMemReply, ReadShReply, ReadDirtyReply:
		return SmallFlits + 2 // 32 B line data
	default:
		return SmallFlits
	}
}

// RecallInfo is the payload of a piggy-backed commit_recall: the tag of the
// squashed chunk and the failed group's g_vec, so the winner's leader can
// route the recall to the Collision module (§3.4).
type RecallInfo struct {
	Tag  CTag
	Try  uint64 // commit attempt index the recall cancels
	GVec []int
}

// Msg is a message in flight. A single flat struct (rather than one type per
// kind) keeps the hot simulation path allocation-light; unused fields are
// zero. Signatures travel by pointer, so the struct stays 184 bytes: only
// commit_request, bulk_inv and their baseline counterparts carry one
// (Table 1, §6.5), and they point at the committing chunk execution's
// immutable snapshot (chunk.Sigs) instead of copying 512 bytes into every
// message. A pointed-to signature is never mutated once sent.
type Msg struct {
	Kind Kind
	Src  int // source node ID
	Dst  int // destination node ID
	Tag  CTag

	// Commit-protocol payloads.
	// RSig and WSig are the read and write signatures (CommitRequest,
	// BulkInv, ArbRequest/ArbInv, SeqOccupy/SeqInval); nil means empty.
	// Read them through R and W.
	RSig, WSig *sig.Sig
	GVec       []int      // participating directory modules, ascending IDs
	InvalVec   bitset.Set // sharer processors to invalidate (Grab)
	Recall     *RecallInfo

	// Simulation-only: the exact line sets behind the signatures, used to
	// update directory state precisely while all protocol *decisions* still
	// go through the signatures (see DESIGN.md §2).
	WriteLines []sig.Line
	ReadLines  []sig.Line

	// Read path.
	Line sig.Line

	// Baselines.
	TID uint64
	// Abandon marks an ArbDone that tears down a dead attempt's arbiter
	// entry (stale grant after a watchdog unwind): the entry is cleared but
	// its writes are NOT applied to the directory — the chunk never
	// committed.
	Abandon bool
}

// emptySig stands in for a nil signature field. Nothing writes to it.
var emptySig sig.Sig

// R returns the read signature, or the empty signature if none is carried.
func (m *Msg) R() *sig.Sig {
	if m.RSig == nil {
		return &emptySig
	}
	return m.RSig
}

// W returns the write signature, or the empty signature if none is carried.
func (m *Msg) W() *sig.Sig {
	if m.WSig == nil {
		return &emptySig
	}
	return m.WSig
}

func (m *Msg) String() string {
	return fmt.Sprintf("%s %d→%d %s", m.Kind, m.Src, m.Dst, m.Tag)
}

// Clone returns a copy of the message. The fault injector uses it to
// duplicate in-flight messages: the copy must not alias any mutable payload
// (GVec, InvalVec, Recall, line lists), or a handler consuming one delivery
// could corrupt the other. The signatures are immutable once sent, so the
// clone shares them.
func (m *Msg) Clone() *Msg {
	c := *m
	if m.GVec != nil {
		c.GVec = append([]int(nil), m.GVec...)
	}
	c.InvalVec = m.InvalVec.Clone()
	if m.Recall != nil {
		r := *m.Recall
		if r.GVec != nil {
			r.GVec = append([]int(nil), r.GVec...)
		}
		c.Recall = &r
	}
	if m.WriteLines != nil {
		c.WriteLines = append([]sig.Line(nil), m.WriteLines...)
	}
	if m.ReadLines != nil {
		c.ReadLines = append([]sig.Line(nil), m.ReadLines...)
	}
	return &c
}
