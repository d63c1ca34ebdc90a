// Package tcc implements the Scalable TCC baseline (Table 3: "Scalable TCC
// [6]"). A commit (1) obtains a transaction ID from a centralized vendor,
// (2) sends a probe to every directory in the chunk's read/write sets and a
// skip to every other directory — a broadcast — and (3) once every probed
// directory acknowledged that the TID reached the head of its pipeline,
// sends commit/mark messages (one mark per written cache line); each
// directory applies the writes, invalidates sharers line by line, and
// advances to the next TID.
//
// The two-phase structure (probe-ack-all, then mark) is what makes commits
// atomic: a transaction can be aborted by an earlier transaction's
// invalidation only while it is still waiting for probe acks, before any
// directory applied its writes.
//
// Two chunks that use the same directory serialize even when their
// addresses are disjoint, and the skip/probe broadcast floods the network
// with small commit messages — the two scalability problems the paper
// quantifies in Figures 7/8 and 18/19.
package tcc

import (
	"fmt"
	"slices"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/protocol/kernel"
	"scalablebulk/internal/sig"
)

// Config tunes the protocol.
type Config struct {
	// VendorServiceTime is the TID vendor's serialized per-request time.
	VendorServiceTime event.Time
	// CommitDeadline is the stall watchdog: a commit still in phase 1 this
	// many cycles after its request is aborted (probes become skips) and the
	// processor retries. It must be nonzero (DefaultConfig sets
	// protocol.DefaultCommitDeadline); protocol.WatchdogDisabled turns it
	// off.
	CommitDeadline event.Time
}

// DefaultConfig mirrors a fast centralized TID vendor.
func DefaultConfig() Config {
	return Config{VendorServiceTime: 4, CommitDeadline: protocol.DefaultCommitDeadline}
}

// entry is one directory's record of a TID: a skip, or a probe.
type entry struct {
	known          bool // probe or skip received
	skip           bool
	tag            msg.CTag
	try            int
	held           bool // probe acked; holding the pipeline head
	committing     bool // phase 2 under way
	marksExpected  int
	marks          []sig.Line
	marksProcessed bool
	invIssued      bool
	// inv counts each per-line invalidation ack once (dup guard).
	inv kernel.AckSet[invalKey]
}

// reset blanks a retired entry for reuse, keeping its mark and ack storage.
func (e *entry) reset() {
	*e = entry{marks: e.marks[:0], inv: e.inv}
	e.inv.Reset()
}

// invalKey identifies one per-line invalidation ack; duplicated deliveries
// of the same ack must not double-count.
type invalKey struct {
	src  int
	line sig.Line
}

// tccMod is one directory module's commit pipeline.
type tccMod struct {
	id   int
	next uint64 // the TID this module processes next
	// win is a ring over the TIDs [next, next+len(win)): the entry for TID t
	// is win[t&(len(win)-1)], nil until a message for t arrives. len(win) is
	// a power of two and doubles whenever a TID lands past its end.
	win  []*entry
	free []*entry // retired entries, reused by entryFor
}

// minWindow is a fresh module's window length.
const minWindow = 8

func (mod *tccMod) slot(tid uint64) **entry {
	return &mod.win[tid&uint64(len(mod.win)-1)]
}

// at returns the entry for TID tid ≥ next, or nil if none arrived yet.
func (mod *tccMod) at(tid uint64) *entry {
	if tid-mod.next >= uint64(len(mod.win)) {
		return nil
	}
	return *mod.slot(tid)
}

// entryFor returns the entry for TID tid ≥ next, creating it if needed.
func (mod *tccMod) entryFor(tid uint64) *entry {
	for tid-mod.next >= uint64(len(mod.win)) {
		old := mod.win
		mod.win = make([]*entry, 2*len(old))
		for t := mod.next; t < mod.next+uint64(len(old)); t++ {
			*mod.slot(t) = old[t&uint64(len(old)-1)]
		}
	}
	sl := mod.slot(tid)
	if *sl == nil {
		if k := len(mod.free); k > 0 {
			*sl = mod.free[k-1]
			mod.free = mod.free[:k-1]
		} else {
			*sl = &entry{}
		}
	}
	return *sl
}

// retire resolves the head TID: its entry returns to the pool and the
// pipeline advances.
func (mod *tccMod) retire() {
	sl := mod.slot(mod.next)
	(*sl).reset()
	mod.free = append(mod.free, *sl)
	*sl = nil
	mod.next++
}

// live counts the entries not yet retired.
func (mod *tccMod) live() int {
	n := 0
	for _, e := range mod.win {
		if e != nil {
			n++
		}
	}
	return n
}

// job is the committing processor's view of one commit. Ack bookkeeping is
// per-module sets, not counters: under fault injection the network can
// duplicate an ack, and a counter would start phase 2 (or complete the
// commit) before every directory actually responded. Each processor has
// one job record, reused commit after commit.
type job struct {
	ck         *chunk.Chunk // nil when the processor has no live commit
	tid        uint64
	probeAcked kernel.AckSet[int]
	doneAcked  kernel.AckSet[int]
	phase2     bool // commit/mark messages sent; past the serialization point
	started    int
	aborted    bool
	// marks[k] holds the written lines homed at ck.Dirs[k], ascending. A
	// tcc_commit's WriteLines points here. Only phase 2 sends one, and a
	// job in phase 2 ends only once every directory acked, so no pending
	// message reads a list the next commit reuses.
	marks [][]sig.Line
}

// start resets j for a commit of ck, keeping its ack and mark storage.
func (j *job) start(ck *chunk.Chunk) {
	j.ck, j.tid, j.phase2, j.started, j.aborted = ck, 0, false, 0, false
	j.probeAcked.Reset()
	j.doneAcked.Reset()
}

// Protocol is the Scalable TCC engine; it implements protocol.Engine.
type Protocol struct {
	env *dir.Env
	cfg Config
	k   *kernel.Kernel

	vendorNode int
	vendorBusy event.Time
	nextTID    uint64

	mods []*tccMod
	jobs []job // jobs[proc]; see job
	// drainFn is drain bound once, for the mark-processing delay.
	drainFn func(any)
}

var _ protocol.Engine = (*Protocol)(nil)

// New builds a Scalable TCC engine over env.
func New(env *dir.Env, cfg Config) *Protocol {
	p := &Protocol{
		env: env, cfg: cfg,
		vendorNode: env.Net.Center(),
		nextTID:    1, jobs: make([]job, env.Net.Nodes()),
	}
	p.k = kernel.New(env, cfg.CommitDeadline, p)
	p.drainFn = func(mod any) { p.drain(mod.(*tccMod)) }
	for i := 0; i < env.Net.Nodes(); i++ {
		p.mods = append(p.mods, &tccMod{id: i, next: 1, win: make([]*entry, minWindow)})
	}
	return p
}

// job returns proc's live commit job, or nil.
func (p *Protocol) job(proc int) *job {
	if j := &p.jobs[proc]; j.ck != nil {
		return j
	}
	return nil
}

// Stats implements protocol.Engine.
func (p *Protocol) Stats() map[string]uint64 {
	return map[string]uint64{"fail_watchdog": p.k.WD.Fired}
}

// RequestCommit implements dir.Protocol: first obtain a TID from the
// centralized vendor (§2.1).
func (p *Protocol) RequestCommit(proc int, ck *chunk.Chunk) {
	p.k.Started(proc, ck)
	p.jobs[proc].start(ck)
	p.env.Net.Send(msg.Msg{Kind: msg.TIDRequest, Src: proc, Dst: p.vendorNode, Tag: ck.Tag})
	p.k.WD.Arm(proc, false, ck.Tag, ck.Retries)
}

// Probe implements kernel.Prober for the deadline armed at RequestCommit. A
// fired watchdog aborts a phase-1 attempt (probes resolve to skips, the
// processor retries with backoff); an attempt already past its serialization
// point cannot be aborted, so the deadline re-arms and keeps watching.
func (p *Protocol) Probe(proc int, tag msg.CTag, try int) kernel.Disposition {
	j := p.job(proc)
	if j == nil || j.ck.Tag != tag || j.ck.Retries != try || j.aborted {
		return kernel.Closed
	}
	if j.phase2 {
		return kernel.Watching
	}
	return kernel.Stalled
}

// Stall implements kernel.Prober: abort the attempt and retry.
func (p *Protocol) Stall(proc int, tag msg.CTag, try int) {
	p.Abort(proc, tag)
	p.env.Cores[proc].CommitRefused(tag)
}

// HandleDir implements dir.Protocol.
func (p *Protocol) HandleDir(node int, m *msg.Msg) {
	switch m.Kind {
	case msg.TIDRequest:
		p.onTIDRequest(m)
		return
	}
	mod := p.mods[node]
	if m.TID < mod.next {
		// The TID already resolved at this module (committed or skipped): a
		// delayed duplicate must not resurrect a blank entry below the
		// pipeline head, where it would sit unexamined forever.
		return
	}
	e := mod.entryFor(m.TID)
	switch m.Kind {
	case msg.TCCProbe:
		if e.known && !e.skip {
			return // duplicate probe
		}
		e.known = true
		e.tag = m.Tag
		e.try = int(m.Line) // probe reuses Line as the attempt index
	case msg.TCCSkip:
		e.known = true
		e.skip = true
	case msg.TCCCommit:
		if e.committing {
			return // duplicate commit message
		}
		e.committing = true
		e.marksExpected = len(m.WriteLines)
	case msg.TCCMark:
		for _, l := range e.marks {
			if l == m.Line {
				return // duplicate mark: a line is marked exactly once
			}
		}
		e.marks = append(e.marks, m.Line)
	case msg.TCCInvalAck:
		if !e.inv.Ack(invalKey{src: m.Src, line: m.Line}) {
			return // duplicate ack
		}
	default:
		panic(fmt.Sprintf("tcc: unexpected directory message %s", m))
	}
	p.drain(mod)
}

// onTIDRequest: the vendor serializes TID allocation (§2.1: "the committing
// processor contacts a centralized agent to obtain a transaction ID").
func (p *Protocol) onTIDRequest(m *msg.Msg) {
	now := p.env.Eng.Now()
	if p.vendorBusy < now {
		p.vendorBusy = now
	}
	p.vendorBusy += p.cfg.VendorServiceTime
	tid := p.nextTID
	p.nextTID++
	p.env.Net.SendAt(p.vendorBusy, msg.Msg{Kind: msg.TIDReply, Src: p.vendorNode, Dst: m.Tag.Proc, Tag: m.Tag, TID: tid})
}

// drain advances a module through its TID sequence. The head entry blocks
// everything behind it until fully resolved — the per-directory
// serialization of §2.1.
func (p *Protocol) drain(mod *tccMod) {
	for {
		e := mod.at(mod.next)
		if e == nil || !e.known {
			return
		}
		if e.skip {
			if e.held {
				// A held probe converted to a skip (abort): release the head.
				p.k.HoldEnd(mod.id, e.tag, e.try)
			}
			mod.retire()
			continue
		}
		if !e.held {
			// Probe reached the head: ack it and hold.
			e.held = true
			p.k.HoldBegin(mod.id, e.tag, e.try)
			p.noteStarted(e)
			p.env.Net.SendAt(p.env.Eng.Now()+dir.LookupLatency, msg.Msg{
				Kind: msg.TCCProbeAck, Src: mod.id, Dst: e.tag.Proc, Tag: e.tag, TID: mod.next,
			})
			return
		}
		if !e.committing || len(e.marks) < e.marksExpected {
			return // waiting for the commit/mark phase
		}
		if !e.marksProcessed {
			// Directory-state update is per marked line ("for every cache
			// line in the chunk's write-set, the processor sends a mark
			// message", §2.1) — the module stays busy while it processes
			// them, holding every later TID behind it.
			e.marksProcessed = true
			delay := dir.LookupLatency * event.Time(len(e.marks)+1)
			p.env.Eng.AtArg(p.env.Eng.Now()+delay, p.drainFn, mod)
			return
		}
		if e.inv.Outstanding() < 0 {
			panic("tcc: inval ack underflow")
		}
		if !e.invalSent(p, mod) {
			return // invalidations just issued; wait for acks
		}
		if e.inv.Outstanding() > 0 {
			return
		}
		// Phase 2 complete at this module.
		for _, l := range e.marks {
			p.env.ApplyCommitWrite(l, e.tag.Proc)
		}
		p.k.HoldEnd(mod.id, e.tag, e.try)
		p.env.Net.Send(msg.Msg{Kind: msg.TCCAck, Src: mod.id, Dst: e.tag.Proc, Tag: e.tag, TID: mod.next})
		mod.retire()
	}
}

// invalSent issues per-line invalidations exactly once; it reports whether
// they had already been issued.
func (e *entry) invalSent(p *Protocol, mod *tccMod) bool {
	if e.invIssued {
		return true
	}
	e.invIssued = true
	for _, l := range e.marks {
		li := p.env.State.Get(l)
		if li == nil {
			continue
		}
		for sh := li.Sharers.Next(0); sh >= 0; sh = li.Sharers.Next(sh + 1) {
			if sh == e.tag.Proc {
				continue
			}
			e.inv.Expect(1)
			p.env.Net.Send(msg.Msg{Kind: msg.TCCInval, Src: mod.id, Dst: sh, Tag: e.tag, TID: mod.next, Line: l})
		}
	}
	return e.inv.Outstanding() == 0
}

// noteStarted feeds the Figures 14–17 statistics: when the last of a
// chunk's directories holds its TID, its "group" has formed.
func (p *Protocol) noteStarted(e *entry) {
	j := p.job(e.tag.Proc)
	if j == nil || j.ck.Tag != e.tag || j.ck.Retries != e.try || j.aborted {
		return
	}
	j.started++
	if j.started == len(j.ck.Dirs) {
		p.k.Formed(e.tag.Proc, e.tag.Seq, e.try)
		p.env.Coll.SampleQueue(p.queuedChunks())
	}
}

// HandleProc implements dir.Protocol: processor-side events.
func (p *Protocol) HandleProc(node int, m *msg.Msg) {
	switch m.Kind {
	case msg.TIDReply:
		p.onTIDReply(node, m)
	case msg.TCCProbeAck:
		p.onProbeAck(node, m)
	case msg.TCCInval:
		// A job holding every probe ack is past its serialization point:
		// the invalidating writer's TID is younger (it shares the line's
		// home directory, which only advances past this job's TID once the
		// job retires there), so this chunk's reads stay valid and it must
		// not be squashed — squashing here would retry a chunk whose marks
		// the directories are already applying, committing it twice.
		var immune *msg.CTag
		if j := p.job(node); j != nil && j.phase2 && !j.aborted {
			t := j.ck.Tag
			immune = &t
		}
		squashed := p.env.Cores[node].InvalidateLine(m.Line, immune)
		p.env.Net.Send(msg.Msg{Kind: msg.TCCInvalAck, Src: node, Dst: m.Src, Tag: m.Tag, TID: m.TID, Line: m.Line})
		if squashed != nil {
			p.Abort(node, *squashed)
		}
	case msg.TCCAck:
		p.onDoneAck(node, m)
	default:
		panic(fmt.Sprintf("tcc: unexpected processor message %s", m))
	}
}

// onTIDReply: broadcast probes and skips (§2.1).
func (p *Protocol) onTIDReply(proc int, m *msg.Msg) {
	j := p.job(proc)
	if j != nil && j.tid == m.TID {
		return // duplicate delivery of the reply already consumed
	}
	if j == nil || j.ck.Tag != m.Tag || j.tid != 0 {
		// No live job for this reply (the attempt completed, aborted, or a
		// duplicated request minted a second TID). The TID was allocated
		// regardless, and every module's pipeline will stall behind it until
		// it resolves: skip it everywhere.
		p.skipEverywhere(proc, m.TID, m.Tag)
		return
	}
	j.tid = m.TID
	if j.aborted {
		// Squashed before the TID arrived: every directory still needs the
		// TID resolved, so skip everywhere.
		p.skipEverywhere(proc, j.tid, j.ck.Tag)
		j.ck = nil
		return
	}
	dirs := j.ck.Dirs
	j.marks = slices.Grow(j.marks[:0], len(dirs))[:len(dirs)]
	for k := range j.marks {
		j.marks[k] = j.marks[k][:0]
	}
	for _, l := range j.ck.WriteLines {
		if h, ok := p.env.Map.HomeIfMapped(l); ok {
			if k, found := slices.BinarySearch(dirs, h); found {
				j.marks[k] = append(j.marks[k], l)
			}
		}
	}
	for _, d := range dirs {
		p.env.Net.Send(msg.Msg{
			Kind: msg.TCCProbe, Src: proc, Dst: d, Tag: j.ck.Tag, TID: j.tid,
			Line: sig.Line(j.ck.Retries),
		})
	}
	// Skip message to every other directory in the machine (§2.1) — the
	// broadcast that floods the network with small commit messages. dirs
	// is ascending, so one walk alongside it finds the probed modules.
	k := 0
	for d := 0; d < p.env.Net.Nodes(); d++ {
		if k < len(dirs) && dirs[k] == d {
			k++
			continue
		}
		p.env.Net.Send(msg.Msg{Kind: msg.TCCSkip, Src: proc, Dst: d, Tag: j.ck.Tag, TID: j.tid})
	}
	if len(j.ck.Dirs) == 0 {
		p.complete(proc, j)
	}
}

func (p *Protocol) skipEverywhere(proc int, tid uint64, tag msg.CTag) {
	for d := 0; d < p.env.Net.Nodes(); d++ {
		p.env.Net.Send(msg.Msg{Kind: msg.TCCSkip, Src: proc, Dst: d, Tag: tag, TID: tid})
	}
}

// onProbeAck: once every probed directory holds the TID, start phase 2:
// commit messages plus one mark per written line (§2.1).
func (p *Protocol) onProbeAck(proc int, m *msg.Msg) {
	j := p.job(proc)
	if j == nil || j.ck.Tag != m.Tag || j.aborted || j.tid != m.TID || j.phase2 {
		return
	}
	if !j.probeAcked.Ack(m.Src) {
		return // duplicate ack from the same directory
	}
	if j.probeAcked.Count() < len(j.ck.Dirs) {
		return
	}
	j.phase2 = true
	for k, d := range j.ck.Dirs {
		p.env.Net.Send(msg.Msg{
			Kind: msg.TCCCommit, Src: proc, Dst: d, Tag: j.ck.Tag, TID: j.tid,
			WriteLines: j.marks[k],
		})
		for _, l := range j.marks[k] {
			p.env.Net.Send(msg.Msg{Kind: msg.TCCMark, Src: proc, Dst: d, Tag: j.ck.Tag, TID: j.tid, Line: l})
		}
	}
}

func (p *Protocol) onDoneAck(proc int, m *msg.Msg) {
	j := p.job(proc)
	if j == nil || j.ck.Tag != m.Tag || j.aborted || j.tid != m.TID {
		return
	}
	if !j.doneAcked.Ack(m.Src) {
		return // duplicate ack from the same directory
	}
	if j.doneAcked.Count() == len(j.ck.Dirs) {
		p.complete(proc, j)
	}
}

func (p *Protocol) complete(proc int, j *job) {
	ck := j.ck
	j.ck = nil
	p.k.Done(proc, false, ck.Tag, ck.Retries)
	p.env.Cores[proc].CommitFinished(ck.Tag)
}

// queuedChunks counts chunks holding a TID whose commit has not started at
// every participating directory (the Figures 16/17 metric for TCC).
func (p *Protocol) queuedChunks() int {
	n := 0
	for i := range p.jobs {
		if j := &p.jobs[i]; j.ck != nil && j.tid != 0 && !j.aborted && j.started < len(j.ck.Dirs) {
			n++
		}
	}
	return n
}

// Abort converts a squashed chunk's probes into skips so directories do not
// stall waiting for a commit that will never happen. Aborts only occur in
// phase 1 (before any directory applied writes): a conflicting earlier
// transaction's invalidation always arrives before this chunk's final probe
// ack (same directory, FIFO path), so atomicity holds.
func (p *Protocol) Abort(proc int, tag msg.CTag) {
	j := p.job(proc)
	if j == nil || j.ck.Tag != tag || j.aborted {
		return
	}
	if len(j.ck.Dirs) > 0 && j.phase2 {
		// Phase 2 under way: every directory holds this TID at its head,
		// so the commit is past its serialization point. (This cannot be
		// reached by a conflicting earlier transaction — its invalidation
		// always precedes the final probe ack on the same FIFO path — but
		// guards the model against exotic timing.)
		return
	}
	j.aborted = true
	if j.tid == 0 {
		return // TID not assigned yet: skipEverywhere runs at TIDReply
	}
	// Convert this chunk's probes to skips at its own directories; other
	// directories already received skips.
	for _, d := range j.ck.Dirs {
		p.env.Net.Send(msg.Msg{Kind: msg.TCCSkip, Src: proc, Dst: d, Tag: tag, TID: j.tid})
	}
	j.ck = nil
}

// DebugModule renders one directory module's pipeline state for deadlock
// diagnostics, walking its window in TID order.
func (p *Protocol) DebugModule(i int) string {
	mod := p.mods[i]
	if mod.live() == 0 {
		return ""
	}
	s := fmt.Sprintf("D%d next=%d:", mod.id, mod.next)
	for tid := mod.next; tid < mod.next+uint64(len(mod.win)); tid++ {
		if e := mod.at(tid); e != nil {
			s += fmt.Sprintf(" [tid=%d known=%v skip=%v tag=%s held=%v committing=%v marks=%d/%d pendingInv=%d]",
				tid, e.known, e.skip, e.tag, e.held, e.committing, len(e.marks), e.marksExpected, e.inv.Outstanding())
		}
	}
	return s
}

// ReadBlocked implements dir.Protocol: a module applying a commit blocks
// reads to the lines being written.
func (p *Protocol) ReadBlocked(node int, l sig.Line) bool {
	mod := p.mods[node]
	e := mod.at(mod.next)
	if e == nil || !e.held || e.skip {
		return false
	}
	for _, ml := range e.marks {
		if ml == l {
			return true
		}
	}
	return false
}

// PendingAttempts implements protocol.Engine: live commit jobs
// plus directory pipeline entries not yet retired.
func (p *Protocol) PendingAttempts() int {
	n := 0
	for i := range p.jobs {
		if p.jobs[i].ck != nil {
			n++
		}
	}
	for _, m := range p.mods {
		n += m.live()
	}
	return n
}
