// Package dir provides the substrate shared by all four commit protocols:
// the distributed directory state (per-line sharer/owner tracking), the
// environment handed to a protocol engine (network, clock, mapper, cores,
// statistics), and the conventional read path that serves cache misses
// between chunk commits.
//
// One directory module lives on every tile; module i owns exactly the lines
// whose pages were first-touch mapped to tile i (see package mem). The
// protocol engines (packages core, tcc, seqpro, bulksc) layer chunk-commit
// transactions on top of this state.
package dir

import (
	"scalablebulk/internal/bitset"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
)

// LineInfo is the directory entry for one cache line.
type LineInfo struct {
	Sharers bitset.Set
	Owner   int // processor holding the line dirty, or -1
	Dirty   bool
}

// Entries and line indexes are allocated in blocks, so neither ever moves
// and none is copied as the directory grows.
const (
	blockShift = 8 // 256 entries a block
	blockLen   = 1 << blockShift
	indexShift = 5 // 32 line indexes (16 KB) a block
	indexLen   = 1 << indexShift
)

// lineIndex locates a page's directory entries: slot i holds the entry
// number of the page's line i plus one, or 0 if that line has none.
type lineIndex [mem.LinesPerPage]int32

// State is the machine-wide directory content. Each module only ever
// touches lines homed at it, so one store for the whole machine is
// equivalent to per-module storage while keeping lookups one-hop.
//
// Storage is by page, like the hardware's fixed-width sharer vectors rather
// than a heap object per line: a page table gives each touched page an id
// and a lineIndex, which points into block-allocated entries. Each entry's
// sharer words sit in a parallel block at a fixed stride of ⌈cores/64⌉
// words, so adding one of the machine's cores as a sharer never allocates.
type State struct {
	pages  mem.PageTable
	index  [][]lineIndex // page id's lineIndex is index[id>>indexShift][id&(indexLen-1)]
	infos  [][]LineInfo  // entry e is infos[e>>blockShift][e&(blockLen-1)]
	words  [][]uint64    // words[b] holds infos[b]'s sharer words, stride per entry
	n      int32         // entries handed out
	stride int           // sharer words per entry
}

// NewState returns empty directory state for a machine of the given number
// of cores.
func NewState(cores int) *State { return &State{stride: max(1, (cores+63)/64)} }

func (s *State) entry(e int32) *LineInfo { return &s.infos[e>>blockShift][e&(blockLen-1)] }

func (s *State) lineIndex(id int) *lineIndex { return &s.index[id>>indexShift][id&(indexLen-1)] }

// lineIndexOf returns the lineIndex of page p, or nil if no line of p has an
// entry.
func (s *State) lineIndexOf(p mem.Page) *lineIndex {
	if id, ok := s.pages.Find(p); ok {
		return s.lineIndex(id)
	}
	return nil
}

// Get returns the entry for a line, or nil if it was never cached.
func (s *State) Get(l sig.Line) *LineInfo {
	if idx := s.lineIndexOf(mem.PageOf(l)); idx != nil {
		if e := idx[l%mem.LinesPerPage]; e != 0 {
			return s.entry(e - 1)
		}
	}
	return nil
}

// Touch returns the entry for a line, creating it if needed.
func (s *State) Touch(l sig.Line) *LineInfo {
	id, added := s.pages.Add(mem.PageOf(l))
	if added && id&(indexLen-1) == 0 {
		s.index = append(s.index, make([]lineIndex, indexLen))
	}
	slot := &s.lineIndex(id)[l%mem.LinesPerPage]
	if *slot == 0 {
		*slot = s.alloc() + 1
	}
	return s.entry(*slot - 1)
}

// alloc hands out the next entry, clean and unowned with no sharers.
func (s *State) alloc() int32 {
	e := s.n
	b, o := int(e>>blockShift), int(e&(blockLen-1))
	if o == 0 {
		s.infos = append(s.infos, make([]LineInfo, blockLen))
		s.words = append(s.words, make([]uint64, blockLen*s.stride))
	}
	w := s.words[b][o*s.stride : (o+1)*s.stride : (o+1)*s.stride]
	s.infos[b][o] = LineInfo{Sharers: bitset.FromWords(w), Owner: -1}
	s.n++
	return e
}

// AddSharer records that processor p now caches line l.
func (s *State) AddSharer(l sig.Line, p int) { s.Touch(l).Sharers.Add(p) }

// Image is a compact, read-only copy of a directory whose every entry is
// clean and unowned — the sharer lists warm-up registers. Line i's sharer
// words sit at words[i*stride : (i+1)*stride]. Lines are grouped by page, in
// the order the pages were first touched, and ascend within a page.
type Image struct {
	lines  []sig.Line
	stride int
	words  []uint64
}

// Snapshot encodes the directory as an Image, or returns nil if some line is
// dirty or owned.
func (s *State) Snapshot() *Image {
	stride := 0
	for e := range s.n {
		li := s.entry(e)
		if li.Dirty || li.Owner != -1 {
			return nil
		}
		stride = max(stride, len(li.Sharers.Words()))
	}
	im := &Image{
		lines:  make([]sig.Line, 0, s.n),
		stride: stride,
		words:  make([]uint64, int(s.n)*stride),
	}
	for id, p := range s.pages.Pages() {
		for off, e := range s.lineIndex(id) {
			if e != 0 {
				copy(im.words[len(im.lines)*stride:], s.entry(e-1).Sharers.Words())
				im.lines = append(im.lines, sig.Line(p)*mem.LinesPerPage+sig.Line(off))
			}
		}
	}
	return im
}

// Restore replaces the directory's entries with im's, in the state's own
// storage: the image is only read, so it may be restored into any number of
// states.
func (s *State) Restore(im *Image) {
	*s = State{stride: max(s.stride, im.stride)}
	for i, l := range im.lines {
		copy(s.Touch(l).Sharers.Words(), im.words[i*im.stride:(i+1)*im.stride])
	}
}

// ApplyCommitWrite updates the directory for one committed written line:
// all copies except the writer's are (being) invalidated, and the writer
// becomes the dirty owner.
func (s *State) ApplyCommitWrite(l sig.Line, writer int) {
	li := s.Touch(l)
	li.Sharers.Clear()
	li.Sharers.Add(writer)
	li.Owner = writer
	li.Dirty = true
}

// SharersOf accumulates into dst the processors (other than exclude) that
// share any of the given lines whose home is the module home; a nil mapper
// matches every home. This is the directory-side "expand the W signature and
// compile the list of sharers" step of §3.1; the exact line list stands in
// for signature expansion (see DESIGN.md §2). A run of lines on one page
// costs one directory lookup and one home lookup, and a page without
// entries skips the latter.
func (s *State) SharersOf(lines []sig.Line, home int, mapper *mem.Mapper, exclude int, dst *bitset.Set) {
	page, idx := mem.Page(^uint64(0)), (*lineIndex)(nil)
	for _, l := range lines {
		if p := mem.PageOf(l); p != page {
			page, idx = p, s.lineIndexOf(p)
			if idx != nil && mapper != nil {
				if h, ok := mapper.HomeIfMapped(l); !ok || h != home {
					idx = nil
				}
			}
		}
		if idx != nil {
			if e := idx[l%mem.LinesPerPage]; e != 0 {
				dst.OrExcept(s.entry(e-1).Sharers, exclude)
			}
		}
	}
}

// SharersOfAll accumulates into dst every processor other than exclude that
// shares any of the given lines, regardless of home module. Baseline
// protocols whose invalidation fan-out is computed at a central point
// (BulkSC's committing processor, SEQ-PRO's occupier) use this.
func (s *State) SharersOfAll(lines []sig.Line, exclude int, dst *bitset.Set) {
	s.SharersOf(lines, 0, nil, exclude, dst)
}

// Core is the face a processor shows to the protocol engines.
type Core interface {
	// CommitFinished tells the core that chunk tag committed successfully.
	CommitFinished(tag msg.CTag)
	// CommitRefused tells the core that the commit attempt failed; the core
	// waits and retries (§3.2: "prompts it to wait for a while and then
	// retry the commit request").
	CommitRefused(tag msg.CTag)
	// BulkInvalidate delivers a committing chunk's W signature for cached
	// line invalidation and chunk disambiguation. lines is the exact write
	// set behind the signature (simulation-only; see DESIGN.md §2). It
	// returns the tag of a chunk that was squashed while in commit flight —
	// the Optimistic Commit Initiation case needing a commit_recall — or
	// nil if no in-flight commit was hurt. immune, when non-nil, names a
	// chunk past its serialization point (its commit is already applied and
	// only acknowledgements are outstanding): its cached copies are still
	// invalidated, but the chunk itself is not squashed — the invalidating
	// writer serializes after it.
	BulkInvalidate(w *sig.Sig, lines []sig.Line, immune *msg.CTag) *msg.CTag
	// InvalidateLine is the per-line variant used by Scalable TCC, whose
	// invalidations are individual cache-line messages (exact, no
	// signature aliasing). immune, when non-nil, names a chunk past its
	// serialization point (every probed directory acked): the cached copy
	// is still invalidated, but that chunk is not squashed — the writer
	// holds a younger TID, so its write does not invalidate the immune
	// chunk's reads. Semantics otherwise match BulkInvalidate.
	InvalidateLine(l sig.Line, immune *msg.CTag) *msg.CTag
	// MaybeDefer lets a conservative core buffer an incoming invalidation
	// while it awaits its commit decision (BulkSC's pre-OCI behavior,
	// §3.3); it reports whether the message was deferred. Deferred
	// messages are consumed — and acknowledged — once the decision lands.
	MaybeDefer(m *msg.Msg) bool
	// ResumeInvalidations ends the conservative deferral window early:
	// BulkSC's arbiter grant is a decision even though the commit is still
	// completing.
	ResumeInvalidations()
}

// Protocol is a chunk-commit protocol engine (ScalableBulk or a baseline).
type Protocol interface {
	// RequestCommit starts committing chunk ck from processor p. The chunk
	// is finalized (signatures and g_vec built).
	RequestCommit(p int, ck *chunk.Chunk)
	// HandleDir processes a directory-side message arriving at node.
	HandleDir(node int, m *msg.Msg)
	// HandleProc processes protocol-specific processor-side messages that
	// the generic core logic does not consume.
	HandleProc(node int, m *msg.Msg)
	// ReadBlocked reports whether a load to line l arriving at directory
	// node must be nacked because it hits a committing chunk's write set
	// (§3.1).
	ReadBlocked(node int, l sig.Line) bool
}

// Probe is the invariant checker's one view of the machine above the
// network: the processors' commit milestones, each engine's serialization
// point, every committed write the directory applies, and ScalableBulk's CST
// occupancy. The interface lives here so the checker can implement it
// without an import cycle. Env.Probe is nil on performance runs, and every
// report site costs one nil check. A Probe must not touch simulator state.
type Probe interface {
	// CommitRequested fires when a processor submits (or re-submits) a
	// chunk for commit, before the protocol engine sees it.
	CommitRequested(proc int, ck *chunk.Chunk)
	// GroupFormed fires at an attempt's serialization point: its group
	// formed, or a baseline authorized the commit.
	GroupFormed(proc int, seq uint64, try int)
	// CommitEnded fires when a processor closes a commit attempt, before a
	// successful one retires its chunk.
	CommitEnded(proc int, seq uint64, try int, success bool)
	// ChunkCommitted fires when a processor retires a chunk — the
	// authoritative per-(proc,seq) commit event.
	ChunkCommitted(proc int, seq uint64, t event.Time)
	// WriteApplied fires for each committed written line, before the
	// directory state records writer as its owner.
	WriteApplied(l sig.Line, writer int)
	// Held and Released fire when a ScalableBulk directory module's CST
	// occupancy is acquired and released; the baselines report neither.
	Held(module int, tag msg.CTag, try int)
	Released(module int, tag msg.CTag, try int)
}

// Env is everything a protocol engine or read path needs from the machine.
type Env struct {
	Eng   *event.Engine
	Net   *mesh.Network
	Map   *mem.Mapper
	State *State
	Cores []Core
	Coll  *stats.Collector

	// Probe, when non-nil, observes the run for the invariant checker.
	Probe Probe
	// Trace, when non-nil, receives structured lifecycle events (package
	// trace). Nil on performance runs — emission sites pay one nil check.
	Trace *trace.Tracer
}

// Table 2 latencies of a directory module.
const (
	// LookupLatency is the directory-module processing latency charged per
	// transaction step (signature expansion, CST lookup).
	LookupLatency event.Time = 2
	// MemLatency is the memory round-trip latency.
	MemLatency event.Time = 300
)

// ApplyCommitWrite applies one committed written line to the directory
// state, reporting it to the Probe first. Every engine applies its commits
// through here.
func (e *Env) ApplyCommitWrite(l sig.Line, writer int) {
	if e.Probe != nil {
		e.Probe.WriteApplied(l, writer)
	}
	e.State.ApplyCommitWrite(l, writer)
}

// ReadPath serves conventional cache-miss transactions at every directory
// module. The active protocol is consulted so reads that hit a committing
// chunk's write set are nacked (§3.1).
type ReadPath struct {
	Env   *Env
	Proto Protocol
}

// HandleDir processes read-path messages addressed to a directory module.
// It reports whether the message was a read-path message.
func (rp *ReadPath) HandleDir(node int, m *msg.Msg) bool {
	switch m.Kind {
	case msg.ReadReq:
		rp.serve(node, m)
		return true
	case msg.ReadDirtyFwd:
		// This tile's cache owns the dirty line: forward the data to the
		// requester (recorded in Tag.Proc).
		rp.Env.Net.Send(msg.Msg{Kind: msg.ReadDirtyReply, Src: node, Dst: m.Tag.Proc, Tag: m.Tag, Line: m.Line})
		return true
	default:
		return false
	}
}

// serve handles a ReadReq at its home module. The network recycles the
// request as soon as this handler returns, so the reply is built from its
// fields now and sent after the directory lookup (and memory access) with
// SendAt.
func (rp *ReadPath) serve(node int, m *msg.Msg) {
	env := rp.Env
	r := msg.Msg{Src: node, Dst: m.Src, Tag: m.Tag, Line: m.Line}
	requester, l := m.Src, m.Line

	if rp.Proto != nil && rp.Proto.ReadBlocked(node, l) {
		env.Coll.ReadNacks++
		r.Kind = msg.ReadNack
		env.Net.Send(r)
		return
	}

	li := env.State.Touch(l)
	delay := LookupLatency
	switch {
	case li.Dirty && li.Owner != requester && li.Owner >= 0:
		// Served by the remote dirty owner (RemoteDirtyRd). The forward
		// carries the requester in Tag.Proc. After the read the data is
		// shared: the owner keeps a copy, memory is considered updated.
		r.Kind, r.Dst, r.Tag = msg.ReadDirtyFwd, li.Owner, msg.CTag{Proc: requester}
		li.Dirty = false
		li.Owner = -1
		li.Sharers.Add(requester)
	case !li.Sharers.Empty():
		// Served cache-to-cache from a shared copy (RemoteShRd).
		r.Kind = msg.ReadShReply
		li.Sharers.Add(requester)
	default:
		// Served from memory (MemRd).
		r.Kind = msg.ReadMemReply
		li.Sharers.Add(requester)
		delay += MemLatency
	}
	env.Net.SendAt(env.Eng.Now()+delay, r)
}
