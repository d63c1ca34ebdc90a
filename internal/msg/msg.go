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

// Flit sizing. A flit is 16 bytes; small control messages fit in one flit,
// and a compressed 2 Kbit signature adds sigFlits flits. commit_request
// carries both R and W signatures (Table 1), bulk_inv carries one W.
const (
	SmallFlits = 1
	sigFlits   = 8 // 2 Kbit compressed ≈ 128 B ≈ 8 flits

	twoSigFlits = SmallFlits + 2*sigFlits // R and W signatures
	oneSigFlits = SmallFlits + sigFlits   // W signature
	lineFlits   = SmallFlits + 2          // 32 B line data
)

// kindInfo is everything fixed about one message kind.
type kindInfo struct {
	name  string
	side  Side
	class Class
	flits int
}

// kinds states each kind's facts once: its trace name, the tile side that
// consumes it, its traffic class and its size in flits. Messages that carry
// signatures are LargeC (Table 1 / §6.5). Read requests and nacks are
// attributed to MemRd here; the stats package reconstructs the exact
// per-transaction classes from reply counts (see stats.TrafficFrom).
var kinds = [numKinds]kindInfo{
	CommitRequest: {"commit_request", SideDir, ClassLargeC, twoSigFlits},
	Grab:          {"g", SideDir, ClassSmallC, SmallFlits},
	GFailure:      {"g_failure", SideDir, ClassSmallC, SmallFlits},
	GSuccess:      {"g_success", SideDir, ClassSmallC, SmallFlits},
	CommitFailure: {"commit_failure", SideProc, ClassSmallC, SmallFlits},
	CommitSuccess: {"commit_success", SideProc, ClassSmallC, SmallFlits},
	BulkInv:       {"bulk_inv", SideProc, ClassLargeC, oneSigFlits},
	BulkInvAck:    {"bulk_inv_ack", SideDir, ClassSmallC, SmallFlits},
	CommitDone:    {"commit_done", SideDir, ClassSmallC, SmallFlits},
	CommitRecall:  {"commit_recall", SideDir, ClassSmallC, SmallFlits},

	ReadReq:        {"read_req", SideDir, ClassMemRd, SmallFlits},
	ReadMemReply:   {"read_mem_reply", SideProc, ClassMemRd, lineFlits},
	ReadShReply:    {"read_sh_reply", SideProc, ClassRemoteShRd, lineFlits},
	ReadDirtyFwd:   {"read_dirty_fwd", SideDir, ClassRemoteDirtyRd, SmallFlits},
	ReadDirtyReply: {"read_dirty_reply", SideProc, ClassRemoteDirtyRd, lineFlits},
	ReadNack:       {"read_nack", SideProc, ClassMemRd, SmallFlits},

	TIDRequest:  {"tid_request", SideDir, ClassSmallC, SmallFlits},
	TIDReply:    {"tid_reply", SideProc, ClassSmallC, SmallFlits},
	TCCProbe:    {"tcc_probe", SideDir, ClassSmallC, SmallFlits},
	TCCProbeAck: {"tcc_probe_ack", SideProc, ClassSmallC, SmallFlits},
	TCCSkip:     {"tcc_skip", SideDir, ClassSmallC, SmallFlits},
	TCCCommit:   {"tcc_commit", SideDir, ClassSmallC, SmallFlits},
	TCCMark:     {"tcc_mark", SideDir, ClassSmallC, SmallFlits},
	TCCInval:    {"tcc_inval", SideProc, ClassSmallC, SmallFlits},
	TCCInvalAck: {"tcc_inval_ack", SideDir, ClassSmallC, SmallFlits},
	TCCAck:      {"tcc_ack", SideProc, ClassSmallC, SmallFlits},

	SeqOccupy:   {"seq_occupy", SideDir, ClassSmallC, SmallFlits},
	SeqGrant:    {"seq_grant", SideProc, ClassSmallC, SmallFlits},
	SeqInval:    {"seq_inval", SideProc, ClassLargeC, oneSigFlits},
	SeqInvalAck: {"seq_inval_ack", SideProc, ClassSmallC, SmallFlits},
	SeqRelease:  {"seq_release", SideDir, ClassSmallC, SmallFlits},

	ArbRequest: {"arb_request", SideDir, ClassLargeC, twoSigFlits},
	ArbGrant:   {"arb_grant", SideProc, ClassSmallC, SmallFlits},
	ArbDeny:    {"arb_deny", SideProc, ClassSmallC, SmallFlits},
	ArbInv:     {"arb_inv", SideProc, ClassLargeC, oneSigFlits},
	ArbInvAck:  {"arb_inv_ack", SideProc, ClassSmallC, SmallFlits},
	ArbDone:    {"arb_done", SideDir, ClassSmallC, SmallFlits},
}

func (k Kind) String() string {
	if uint(k) < uint(numKinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// SideOf returns the consuming side for a message kind.
func (k Kind) SideOf() Side { return kinds[k].side }

// ClassOf returns the traffic class of a message kind.
func (k Kind) ClassOf() Class { return kinds[k].class }

// FlitsOf returns the size of a message kind in flits.
func (k Kind) FlitsOf() int { return kinds[k].flits }

// ReadPath reports whether a kind is read-path traffic — a miss, its
// replies, forward and nack — rather than commit-protocol traffic: exactly
// the kinds of the three read classes.
func (k Kind) ReadPath() bool { return kinds[k].class <= ClassRemoteDirtyRd }

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
