// Package core implements the ScalableBulk protocol — the paper's primary
// contribution: a directory-based cache-coherence protocol that commits
// chunks with no centralized structure, communicating only with the relevant
// directory modules, and overlapping the commit of any chunks whose updated
// addresses do not overlap (§2.3, §3).
//
// The engine realizes the three generic primitives of §3:
//
//  1. Preventing access to a set of directory entries: while a chunk's W
//     signature is held at a module, overlapping loads are nacked and
//     overlapping commits collide (§3.1).
//  2. Grouping directory modules: the Group Formation protocol — a g (grab)
//     message traverses the participating modules in priority order starting
//     at the leader and returns to it; incompatible groups are resolved at
//     the lowest common ("Collision") module, which declares as winner the
//     first group for which it saw both the signature pair and the g
//     message (§3.2).
//  3. Optimistic Commit Initiation: a committing processor keeps consuming
//     bulk invalidations; if one squashes the chunk it sent out for commit,
//     the cancellation travels as a commit_recall piggy-backed on the
//     bulk_inv_ack and then on the commit_done, reaching the Collision
//     module (§3.3, §3.4).
//
// Message orderings follow Appendix A, Tables 4 and 5.
package core

import (
	"fmt"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/protocol/kernel"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/trace"
)

// chunkState is the lifecycle of a CST entry (Figure 6: the h and c bits).
type chunkState int

const (
	// stPending: signatures and/or g received, module not yet admitted.
	stPending chunkState = iota
	// stHeld: h=1 — no conflicts found here, module admitted into the
	// group, g passed onward.
	stHeld
	// stConfirmed: c=1 — the group formed; directory state is updated.
	stConfirmed
)

// cstEntry is one Chunk State Table entry (Figure 6). Entries are pooled per
// module (module.free) and reset when reused.
type cstEntry struct {
	mod *module
	tag msg.CTag
	try int
	// rsig and wsig point at the attempt's immutable signature snapshot
	// (chunk.Sigs), shared with the commit_request that delivered it.
	rsig, wsig *sig.Sig
	// gvec is the participating modules in group (priority) order; the
	// leader is gvec[0].
	gvec       []int
	writeLines []sig.Line

	state    chunkState
	gotSigs  bool
	expanded bool // sharer computation done (W "expansion", §3.1)
	gotG     bool

	// invalVec accumulates the sharer processors to invalidate: own sharers
	// merged with the vector carried by the incoming g message.
	invalVec bitset.Set

	// Leader-only bookkeeping. acks counts each sharer once, so a duplicated
	// bulk_inv_ack (fault injection) cannot complete the commit early.
	leader  bool
	acks    kernel.AckSet[int]
	recalls []*msg.RecallInfo

	// live is set while the entry is in its module's CST. expanding is set
	// while its W-expansion event is pending: the event still refers to the
	// entry, so a dead entry returns to the pool only once it fired.
	live, expanding bool
}

// module is one directory module's protocol engine state.
type module struct {
	id  int
	cst []*cstEntry
	// free holds dead entries ready for reuse.
	free []*cstEntry
	// reserved is the starving chunk this module is reserved for (§3.2.2).
	reserved *msg.CTag
	// hist[proc] holds this module's records of proc's chunks, ascending by
	// sequence number; see chunkHist.
	hist [][]chunkHist
}

// chunkHist is what a module remembers about one chunk beyond its CST entry.
// A record is created on first use and never removed, so the records of a
// module hold exactly the keys a map from chunk tag to these fields would.
type chunkHist struct {
	seq uint64
	// failedTry, when failed is set, tombstones the latest attempt known to
	// have failed, so late-arriving messages of that attempt are discarded.
	failedTry int
	failed    bool
	// squashes counts observed commit failures for starvation (§3.2.2).
	squashes int
	// lookoutTry, when lookout is set, is the attempt a commit_recall
	// waiting for the loser's (R,W)+g will kill (§3.4).
	lookoutTry int
	lookout    bool
}

// histOf returns tag's record at this module, or nil.
func (mod *module) histOf(tag msg.CTag) *chunkHist {
	if tag.Proc >= len(mod.hist) {
		return nil
	}
	hs := mod.hist[tag.Proc]
	// A processor's live chunks are its newest, so search from the end.
	for i := len(hs) - 1; i >= 0 && hs[i].seq >= tag.Seq; i-- {
		if hs[i].seq == tag.Seq {
			return &hs[i]
		}
	}
	return nil
}

// histFor returns tag's record at this module, creating an empty one if
// there is none. The pointer is valid until the next histFor.
func (mod *module) histFor(tag msg.CTag) *chunkHist {
	if h := mod.histOf(tag); h != nil {
		return h
	}
	for len(mod.hist) <= tag.Proc {
		mod.hist = append(mod.hist, nil)
	}
	hs := append(mod.hist[tag.Proc], chunkHist{})
	i := len(hs) - 1
	for ; i > 0 && hs[i-1].seq > tag.Seq; i-- {
		hs[i] = hs[i-1]
	}
	hs[i] = chunkHist{seq: tag.Seq}
	mod.hist[tag.Proc] = hs
	return &hs[i]
}

// failedAt reports whether attempt try of tag is known to have failed (or
// the chunk committed) at this module.
func (mod *module) failedAt(tag msg.CTag, try int) bool {
	h := mod.histOf(tag)
	return h != nil && h.failed && try <= h.failedTry
}

// Config tunes the protocol.
type Config struct {
	// OCI is read by no engine code: Optimistic Commit Initiation (§3.3)
	// on or off is the protocol row's processor Tuning (system.Descriptors),
	// and both ScalableBulk rows reject a block with OCI false. The field
	// stays because journal config hashes render the option block with %+v,
	// so deleting it would move the pinned ScalableBulk and NoOCI hashes.
	OCI bool
	// MaxSquashes is the §3.2.2 MAX threshold after which the group's
	// modules reserve themselves for a starving chunk.
	MaxSquashes int
	// RotationInterval, if nonzero, rotates directory-ID priorities every
	// interval for long-term fairness (§3.2.2). Zero keeps the baseline
	// lowest-ID-is-leader policy.
	RotationInterval event.Time
	// CommitDeadline is the group-formation watchdog: an attempt still open
	// this many cycles after its commit_request is failed machine-wide (a
	// synthesized g_failure + commit_failure) so the processor retries with
	// backoff instead of hanging to MaxCycles. Generous enough never to
	// fire on a fault-free run. It must be nonzero (DefaultConfig sets
	// protocol.DefaultCommitDeadline); protocol.WatchdogDisabled turns the
	// watchdog off.
	CommitDeadline event.Time
}

// DefaultConfig returns the configuration used in the paper's evaluation.
func DefaultConfig() Config {
	return Config{OCI: true, MaxSquashes: 12, CommitDeadline: protocol.DefaultCommitDeadline}
}

// FailStats counts group-formation failures by cause; used by the ablation
// benchmarks and diagnostics.
type FailStats struct {
	Collision uint64 // lost to an incompatible group (§3.2.1)
	Reserved  uint64 // bounced by a starvation reservation (§3.2.2)
	Recalled  uint64 // killed by a commit_recall lookout (§3.4)
	Watchdog  uint64 // group formation stalled past CommitDeadline
}

// Protocol is the ScalableBulk engine. It implements protocol.Engine.
type Protocol struct {
	env  *dir.Env
	cfg  Config
	k    *kernel.Kernel
	mods []*module

	// watch tracks open commit attempts for the formation watchdog, per
	// committing processor: each record holds the attempt's ordered gvec,
	// used to synthesize a machine-wide g_failure if the attempt stalls past
	// CommitDeadline.
	watch [][]watched

	// expandFn is the W-expansion event handler, bound once.
	expandFn func(any)
	// scratch backs deallocate's snapshots of a module's CST; nested
	// deallocations stack their snapshots above the caller's.
	scratch []*cstEntry

	// Fails tallies group-formation failures by cause.
	Fails FailStats
}

// watched is one open commit attempt.
type watched struct {
	seq  uint64
	try  int
	gvec []int
}

var (
	_ protocol.Engine = (*Protocol)(nil)
	_ kernel.Prober   = (*Protocol)(nil)
)

// New builds a ScalableBulk engine over env.
func New(env *dir.Env, cfg Config) *Protocol {
	n := env.Net.Nodes()
	p := &Protocol{env: env, cfg: cfg, watch: make([][]watched, n)}
	p.k = kernel.New(env, cfg.CommitDeadline, p)
	p.expandFn = p.expand
	for i := 0; i < n; i++ {
		p.mods = append(p.mods, &module{id: i})
	}
	return p
}

// Stats implements protocol.Engine: group-formation failures by cause.
func (p *Protocol) Stats() map[string]uint64 {
	return map[string]uint64{
		"fail_collision": p.Fails.Collision,
		"fail_reserved":  p.Fails.Reserved,
		"fail_recalled":  p.Fails.Recalled,
		"fail_watchdog":  p.Fails.Watchdog,
	}
}

// rank returns a module's current priority rank (lower = higher priority).
// With rotation disabled this is the module ID (baseline policy, §3.2.1).
func (p *Protocol) rank(d int) int {
	if p.cfg.RotationInterval == 0 {
		return d
	}
	n := p.env.Net.Nodes()
	epoch := int(p.env.Eng.Now()/p.cfg.RotationInterval) % n
	return (d - epoch + n) % n
}

// orderGVec sorts the participating modules by current priority; the first
// element is the leader. Without rotation the rank is the module ID and
// dirs (ascending) is already in order, so it is returned as is: the chunk
// rewrites it only on re-execution, with identical contents.
func (p *Protocol) orderGVec(dirs []int) []int {
	if p.cfg.RotationInterval == 0 {
		return dirs
	}
	out := append([]int(nil), dirs...)
	// Insertion sort by rank: gvecs are tiny (2–6 entries typically).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && p.rank(out[j]) < p.rank(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RequestCommit implements dir.Protocol: the committing processor sends the
// (R,W) signature pair and the g_vec to every participating directory
// module (Figure 3(a)).
func (p *Protocol) RequestCommit(proc int, ck *chunk.Chunk) {
	try := ck.Retries
	p.k.Started(proc, ck)

	if len(ck.Dirs) == 0 {
		// A chunk with no memory footprint commits trivially.
		p.env.Net.SendAt(p.env.Eng.Now()+1, msg.Msg{Kind: msg.CommitSuccess, Src: proc, Dst: proc, Tag: ck.Tag})
		p.k.Formed(proc, ck.Tag.Seq, try)
		return
	}

	gvec := p.orderGVec(ck.Dirs)
	p.armWatchdog(ck.Tag, try, gvec)
	sigs := ck.Snapshot()
	for _, d := range gvec {
		p.env.Net.Send(msg.Msg{
			Kind: msg.CommitRequest, Src: proc, Dst: d, Tag: ck.Tag,
			RSig: &sigs.R, WSig: &sigs.W, GVec: gvec,
			WriteLines: ck.WriteLines, TID: uint64(try),
		})
	}
}

// armWatchdog registers an attempt with the kernel's commit-stall watchdog.
// If the attempt is still open (no commit_success or commit_failure sent)
// when the deadline passes, the watchdog fails it machine-wide: a g_failure
// multicast unwinds whatever partial group exists and a commit_failure makes
// the processor retry with backoff — a faulted run degrades into a retry
// instead of hanging until MaxCycles.
func (p *Protocol) armWatchdog(tag msg.CTag, try int, gvec []int) {
	if !p.k.WD.Enabled() {
		return
	}
	if i := p.watchIndex(tag, try); i >= 0 {
		p.watch[tag.Proc][i].gvec = gvec
	} else {
		p.watch[tag.Proc] = append(p.watch[tag.Proc], watched{seq: tag.Seq, try: try, gvec: gvec})
	}
	p.k.WD.Arm(gvec[0], true, tag, try)
}

// watchIndex returns the position of the open attempt (tag, try) in
// p.watch[tag.Proc], or -1.
func (p *Protocol) watchIndex(tag msg.CTag, try int) int {
	for i, w := range p.watch[tag.Proc] {
		if w.seq == tag.Seq && w.try == try {
			return i
		}
	}
	return -1
}

// Probe implements kernel.Prober: an attempt still open at its deadline
// stalled.
func (p *Protocol) Probe(node int, tag msg.CTag, try int) kernel.Disposition {
	if p.watchIndex(tag, try) < 0 {
		return kernel.Closed
	}
	return kernel.Stalled
}

// Stall implements kernel.Prober: fail the stalled attempt machine-wide.
func (p *Protocol) Stall(node int, tag msg.CTag, try int) {
	gvec := p.watch[tag.Proc][p.watchIndex(tag, try)].gvec
	p.closeWatchdog(tag, try)
	p.Fails.Watchdog++
	// Synthesized failure from the leader: every module unwinds the
	// attempt (no-op where it never arrived), and the processor is told
	// directly in case the leader module never saw the attempt at all.
	for _, d := range gvec {
		p.env.Net.Send(msg.Msg{Kind: msg.GFailure, Src: gvec[0], Dst: d, Tag: tag, TID: uint64(try)})
	}
	p.sendCommitFailure(gvec[0], tag, try)
}

// closeWatchdog marks an attempt decided (success or failure notified).
func (p *Protocol) closeWatchdog(tag msg.CTag, try int) {
	if i := p.watchIndex(tag, try); i >= 0 {
		ws := p.watch[tag.Proc]
		p.watch[tag.Proc] = append(ws[:i], ws[i+1:]...)
	}
}

// HandleProc implements dir.Protocol. ScalableBulk has no processor-side
// messages beyond the generic ones the core consumes.
func (p *Protocol) HandleProc(node int, m *msg.Msg) {
	panic(fmt.Sprintf("core: unexpected processor message %s", m))
}

// ReadBlocked implements dir.Protocol (§3.1): loads that hit any currently
// held W signature at the module are nacked.
func (p *Protocol) ReadBlocked(node int, l sig.Line) bool {
	for _, e := range p.mods[node].cst {
		if e.gotSigs && e.wsig.Member(l) {
			return true
		}
	}
	return false
}

// HandleDir implements dir.Protocol: the directory-side state machine.
func (p *Protocol) HandleDir(node int, m *msg.Msg) {
	mod := p.mods[node]
	switch m.Kind {
	case msg.CommitRequest:
		p.onCommitRequest(mod, m)
	case msg.Grab:
		p.onGrab(mod, m)
	case msg.GSuccess:
		p.onGSuccess(mod, m)
	case msg.GFailure:
		p.onGFailure(mod, m)
	case msg.BulkInvAck:
		p.onBulkInvAck(mod, m)
	case msg.CommitDone:
		p.onCommitDone(mod, m)
	default:
		panic(fmt.Sprintf("core: unexpected directory message %s", m))
	}
}

func (mod *module) find(tag msg.CTag) *cstEntry {
	for _, e := range mod.cst {
		if e.tag == tag {
			return e
		}
	}
	return nil
}

func (mod *module) remove(tag msg.CTag) {
	for i, e := range mod.cst {
		if e.tag == tag {
			mod.cst = append(mod.cst[:i], mod.cst[i+1:]...)
			return
		}
	}
}

func (mod *module) getOrCreate(tag msg.CTag) *cstEntry {
	if e := mod.find(tag); e != nil {
		return e
	}
	var e *cstEntry
	if n := len(mod.free); n > 0 {
		e = mod.free[n-1]
		mod.free = mod.free[:n-1]
		e.reset()
	} else {
		e = &cstEntry{mod: mod}
	}
	e.tag, e.live = tag, true
	mod.cst = append(mod.cst, e)
	return e
}

// reset clears a pooled entry for reuse, keeping its storage.
func (e *cstEntry) reset() {
	e.try = 0
	e.rsig, e.wsig = nil, nil
	e.gvec, e.writeLines = nil, nil
	e.state = stPending
	e.gotSigs, e.expanded, e.gotG, e.leader = false, false, false, false
	e.invalVec.Clear()
	e.acks.Reset()
	clear(e.recalls)
	e.recalls = e.recalls[:0]
}

// retire takes a deallocated entry out of service. Its fields stay as they
// are until the entry is reused: reuse happens only in getOrCreate, at the
// start of a message handler, when nothing else refers to a dead entry
// except a pending W-expansion event, which returns it to the pool itself.
func (mod *module) retire(e *cstEntry) {
	if !e.live {
		return
	}
	e.live = false
	if !e.expanding {
		mod.free = append(mod.free, e)
	}
}

// incompatible implements the §3.2.1 group-compatibility test: two groups
// are incompatible if their W signatures overlap or if the R signature of
// one overlaps the W signature of the other.
func incompatible(a, b *cstEntry) bool {
	return a.wsig.Overlaps(b.wsig) || a.wsig.Overlaps(b.rsig) || a.rsig.Overlaps(b.wsig)
}

// entryFor resolves the CST entry for an attempt, handling attempt
// staleness: messages of an older attempt than the entry's are dropped
// (nil), and an entry left over from an older, failed attempt is replaced —
// the processor only ever starts attempt N+1 after attempt N failed, so a
// lower-try entry is provably stale even if this module missed the
// g_failure (possible under message races); this keeps half-formed groups
// from wedging the module.
func (p *Protocol) entryFor(mod *module, tag msg.CTag, try int) *cstEntry {
	e := mod.find(tag)
	if e == nil {
		e = mod.getOrCreate(tag)
		e.try = try
		return e
	}
	if try < e.try {
		return nil // stale message of an older attempt
	}
	if try > e.try {
		p.env.Trace.Emit(trace.Event{
			Kind: trace.KStaleClear, Node: mod.id, Dir: true,
			Tag: tag, Try: e.try, Cause: trace.CauseStale,
		})
		if e.gotSigs {
			p.multicastFailure(mod, tag, e.try, e.gvec)
		}
		p.deallocate(mod, e, e.state == stConfirmed)
		e = mod.getOrCreate(tag)
		e.try = try
	}
	return e
}

// multicastFailure broadcasts g_failure for a dead attempt to its group so
// every module holding it unwinds; the no-starve flag is set (Line == 0).
func (p *Protocol) multicastFailure(mod *module, tag msg.CTag, try int, gvec []int) {
	for _, d := range gvec {
		if d == mod.id {
			continue
		}
		p.env.Net.Send(msg.Msg{Kind: msg.GFailure, Src: mod.id, Dst: d, Tag: tag, TID: uint64(try)})
	}
}

func (p *Protocol) onCommitRequest(mod *module, m *msg.Msg) {
	try := int(m.TID)
	if mod.failedAt(m.Tag, try) {
		// This attempt already failed (a g_failure beat the request here).
		// Tell the processor: normally its leader does (Table 4,
		// "R:commit_request & R:g_failure (from leader)"), but under
		// message races the leader can miss the failure, and a silent drop
		// would strand the half-formed group forever. Duplicate failure
		// notifications are discarded by the processor.
		p.sendCommitFailure(mod.id, m.Tag, try)
		return
	}
	e := p.entryFor(mod, m.Tag, try)
	if e == nil || e.gotSigs {
		return // stale or duplicate
	}
	p.env.Trace.Instant(trace.KCommitReq, mod.id, true, m.Tag, try)
	e.rsig, e.wsig = m.R(), m.W()
	e.gvec = m.GVec
	e.writeLines = m.WriteLines
	e.gotSigs = true
	e.leader = len(m.GVec) > 0 && m.GVec[0] == mod.id

	// Expand the W signature against the local directory to find sharers.
	// This takes dir.LookupLatency cycles but typically completes before the
	// g message arrives, keeping it off the critical path (§3.2.1).
	e.expanding = true
	p.env.Eng.AtArg(p.env.Eng.Now()+dir.LookupLatency, p.expandFn, e)
}

// expand is the W-expansion event of a CST entry.
func (p *Protocol) expand(arg any) {
	e := arg.(*cstEntry)
	mod := e.mod
	e.expanding = false
	if !e.live {
		// Deallocated (failed) meanwhile. A dead entry is not reused while
		// its expansion is pending, so it is still the entry the event was
		// scheduled for; it goes back to the pool now.
		mod.free = append(mod.free, e)
		return
	}
	if e.expanded {
		return
	}
	e.expanded = true
	p.env.State.SharersOf(e.writeLines, mod.id, p.env.Map, e.tag.Proc, &e.invalVec)
	p.tryAdvance(mod, e)
}

func (p *Protocol) onGrab(mod *module, m *msg.Msg) {
	if mod.failedAt(m.Tag, int(m.TID)) {
		// The attempt already failed (or committed) here, but upstream
		// modules hold it: unwind them, otherwise the orphaned chain
		// blocks live chunks forever.
		p.multicastFailure(mod, m.Tag, int(m.TID), m.GVec)
		return
	}
	e := p.entryFor(mod, m.Tag, int(m.TID))
	if e == nil {
		p.multicastFailure(mod, m.Tag, int(m.TID), m.GVec)
		return // stale g of an older attempt
	}
	if e.leader && e.state == stHeld {
		// The g message returned to the leader: the group is formed
		// (Figure 3(c)).
		e.invalVec.Or(m.InvalVec)
		p.confirmGroup(mod, e)
		return
	}
	e.gotG = true
	e.invalVec.Or(m.InvalVec)
	p.tryAdvance(mod, e)
}

// tryAdvance attempts the module's admission decision for a pending entry:
// the module "wins" the entry (sets h, forwards g) if it has everything it
// needs and no incompatible chunk already holds the module.
func (p *Protocol) tryAdvance(mod *module, e *cstEntry) {
	if e.state != stPending || !e.gotSigs || !e.expanded {
		return
	}
	if !e.leader && !e.gotG {
		return
	}

	// Starvation reservation (§3.2.2): a reserved module treats every other
	// chunk as a collision loser.
	if mod.reserved != nil && *mod.reserved != e.tag && !tagOlder(e.tag, *mod.reserved) {
		// A reserved module bounces chunks younger than the starving one.
		// Two deviations from a literal reading of §3.2.2, both needed for
		// liveness: bounces do not feed the victims' own starvation
		// counters (otherwise reservations breed reservations and the
		// machine convoys), and chunks older than the reservation holder
		// pass through (otherwise modules reserved for different chunks of
		// overlapping groups deadlock each other) — the globally oldest
		// chunk passes every reservation and is guaranteed progress.
		p.Fails.Reserved++
		p.env.Trace.Emit(trace.Event{
			Kind: trace.KReserved, Node: mod.id, Dir: true, Tag: e.tag, Try: e.try,
			Other: *mod.reserved, HasOther: true,
		})
		p.failGroup(mod, e, false, trace.CauseReserved)
		return
	}
	// A commit_recall on the lookout kills this attempt (§3.4).
	if h := mod.histOf(e.tag); h != nil && h.lookout {
		h.lookout = false
		if e.try <= h.lookoutTry {
			p.Fails.Recalled++
			p.failGroup(mod, e, false, trace.CauseRecalled)
			return
		}
		// A stale lookout for an older attempt: dropped.
	}
	// Collision detection: an incompatible group that already holds this
	// module wins; this entry loses (§3.2.1).
	for _, o := range mod.cst {
		if o != e && o.state != stPending && incompatible(e, o) {
			p.env.Trace.Emit(trace.Event{
				Kind: trace.KCollision, Node: mod.id, Dir: true, Tag: e.tag, Try: e.try,
				Other: o.tag, HasOther: true,
			})
			p.Fails.Collision++
			p.failGroup(mod, e, true, trace.CauseCollision)
			return
		}
	}

	// Win: h ← 1, push g onward, irrevocably choosing this group here.
	e.state = stHeld
	p.k.HoldBegin(mod.id, e.tag, e.try)
	if p.env.Probe != nil {
		p.env.Probe.Held(mod.id, e.tag, e.try)
	}
	if e.leader && len(e.gvec) == 1 {
		p.confirmGroup(mod, e)
		return
	}
	next := p.successor(e, mod.id)
	p.env.Net.Send(msg.Msg{
		Kind: msg.Grab, Src: mod.id, Dst: next, Tag: e.tag,
		InvalVec: e.invalVec.Clone(), TID: uint64(e.try), GVec: e.gvec,
	})
}

// successor returns the next module after d in the group's traversal order,
// wrapping from the last module back to the leader.
func (p *Protocol) successor(e *cstEntry, d int) int {
	for i, g := range e.gvec {
		if g == d {
			if i+1 < len(e.gvec) {
				return e.gvec[i+1]
			}
			return e.gvec[0] // back to the leader
		}
	}
	panic(fmt.Sprintf("core: module %d not in gvec %v", d, e.gvec))
}

// confirmGroup runs at the leader when the g message returns: the group is
// formed (Figure 3(c)/(d)).
func (p *Protocol) confirmGroup(mod *module, e *cstEntry) {
	e.state = stConfirmed
	p.closeWatchdog(e.tag, e.try)
	p.env.Trace.Instant(trace.KGroupFormed, mod.id, true, e.tag, e.try)
	p.k.Formed(e.tag.Proc, e.tag.Seq, e.try)

	// g_success to all members (Figure 3(c)).
	for _, d := range e.gvec[1:] {
		p.env.Net.Send(msg.Msg{Kind: msg.GSuccess, Src: mod.id, Dst: d, Tag: e.tag})
	}
	// commit_success to the committing processor, W to the sharers
	// (Figure 3(d)).
	p.env.Net.Send(msg.Msg{Kind: msg.CommitSuccess, Src: mod.id, Dst: e.tag.Proc, Tag: e.tag})
	p.applyWrites(mod.id, e)

	targets := e.invalVec.Members()
	e.acks.Expect(len(targets))
	for _, t := range targets {
		p.env.Net.Send(msg.Msg{
			Kind: msg.BulkInv, Src: mod.id, Dst: t, Tag: e.tag,
			WSig: e.wsig, WriteLines: e.writeLines,
		})
	}
	if e.acks.Done() {
		p.finishCommit(mod, e)
	}
}

// applyWrites updates this module's directory entries for the committed
// chunk's written lines homed here.
func (p *Protocol) applyWrites(node int, e *cstEntry) {
	for _, l := range e.writeLines {
		if h, ok := p.env.Map.HomeIfMapped(l); ok && h == node {
			p.env.ApplyCommitWrite(l, e.tag.Proc)
		}
	}
}

func (p *Protocol) onGSuccess(mod *module, m *msg.Msg) {
	e := mod.find(m.Tag)
	if e == nil || e.state == stConfirmed {
		return // unknown, or a duplicate delivery (writes already applied)
	}
	e.state = stConfirmed
	p.applyWrites(mod.id, e)
}

// onBulkInvAck runs at the leader; acks may piggy-back commit_recalls.
// The AckSet counts each sharer once: under fault injection the network may
// duplicate an ack, and a double-count would fire finishCommit before every
// sharer actually invalidated.
func (p *Protocol) onBulkInvAck(mod *module, m *msg.Msg) {
	e := mod.find(m.Tag)
	if e == nil || !e.leader {
		return
	}
	if !e.acks.Ack(m.Src) {
		return // duplicate delivery, recall already captured
	}
	if m.Recall != nil {
		e.recalls = append(e.recalls, m.Recall)
	}
	if e.acks.Done() {
		p.finishCommit(mod, e)
	}
}

// finishCommit runs at the leader once every sharer acked: commit_done is
// multicast (carrying any commit_recalls), the group breaks down, and the
// signatures are deallocated (Figure 3(e)).
func (p *Protocol) finishCommit(mod *module, e *cstEntry) {
	p.k.Done(mod.id, true, e.tag, e.try)
	for _, d := range e.gvec[1:] {
		p.env.Net.Send(msg.Msg{Kind: msg.CommitDone, Src: mod.id, Dst: d, Tag: e.tag,
			Recall: firstRecall(e.recalls)})
	}
	// Extra recalls (rare: several sharers squashed concurrently) ride in
	// separate commit_done messages, as piggy-backing implies one each.
	for _, r := range e.recalls[min(1, len(e.recalls)):] {
		for _, d := range e.gvec[1:] {
			p.env.Net.Send(msg.Msg{Kind: msg.CommitDone, Src: mod.id, Dst: d, Tag: e.tag, Recall: r})
		}
	}
	for _, r := range e.recalls {
		p.handleRecall(mod, e, r)
	}
	p.deallocate(mod, e, true)
}

func firstRecall(rs []*msg.RecallInfo) *msg.RecallInfo {
	if len(rs) == 0 {
		return nil
	}
	return rs[0]
}

func (p *Protocol) onCommitDone(mod *module, m *msg.Msg) {
	e := mod.find(m.Tag)
	if m.Recall != nil {
		if e != nil {
			p.handleRecall(mod, e, m.Recall)
		}
	}
	if e == nil {
		return
	}
	p.deallocate(mod, e, true)
}

// handleRecall implements §3.4: the recall acts only at the Collision
// module — the first module, in the winner group's traversal order, common
// to both groups.
func (p *Protocol) handleRecall(mod *module, winner *cstEntry, r *msg.RecallInfo) {
	common := -1
outer:
	for _, d := range winner.gvec {
		for _, l := range r.GVec {
			if d == l {
				common = d
				break outer
			}
		}
	}
	if common != mod.id {
		return // not the Collision module: no action
	}
	try := int(r.Try)
	if mod.failedAt(r.Tag, try) {
		return // already sent g_failure for that attempt: discard (§3.4)
	}
	if loser := mod.find(r.Tag); loser != nil && loser.try == try {
		// Already has (R,W) and/or g for the loser.
		if loser.state == stPending {
			p.Fails.Recalled++
			p.failGroup(mod, loser, false, trace.CauseRecalled)
		}
		// If the loser somehow advanced here it will be killed by the
		// processor discarding commit_success; cannot happen in practice
		// because this module held the winner until now.
		return
	}
	// Be on the lookout for the loser's (R,W)+g (§3.4).
	p.env.Trace.Instant(trace.KRecall, mod.id, true, r.Tag, try)
	h := mod.histFor(r.Tag)
	h.lookoutTry, h.lookout = try, true
}

// failGroup runs at the module that detects a collision (or enforces a
// reservation/recall): it multicasts g_failure to the losing group and, if
// it is itself the loser's leader, notifies the processor (Tables 4/5).
func (p *Protocol) failGroup(mod *module, e *cstEntry, countSquash bool, cause trace.Cause) {
	p.env.Trace.Emit(trace.Event{
		Kind: trace.KGroupFail, Node: mod.id, Dir: true,
		Tag: e.tag, Try: e.try, Cause: cause,
	})
	var aux uint64
	if countSquash {
		aux = 1
	}
	for _, d := range e.gvec {
		if d == mod.id {
			continue
		}
		p.env.Net.Send(msg.Msg{Kind: msg.GFailure, Src: mod.id, Dst: d, Tag: e.tag,
			TID: uint64(e.try), Line: sig.Line(aux)})
	}
	if e.leader {
		p.sendCommitFailure(mod.id, e.tag, e.try)
	}
	p.noteFailure(mod, e.tag, e.try, countSquash)
	p.deallocate(mod, e, false)
}

func (p *Protocol) sendCommitFailure(node int, tag msg.CTag, try int) {
	// The attempt index rides along so the processor can discard stale
	// failure notifications (several modules may report the same failed
	// attempt): without it, each stale copy would cancel a fresh attempt
	// and the retries would multiply exponentially.
	p.closeWatchdog(tag, try)
	p.env.Net.Send(msg.Msg{Kind: msg.CommitFailure, Src: node, Dst: tag.Proc, Tag: tag, TID: uint64(try)})
}

// onGFailure: a member of a failing group tears the entry down; the loser's
// leader notifies the committing processor (Table 5).
func (p *Protocol) onGFailure(mod *module, m *msg.Msg) {
	e := mod.find(m.Tag)
	if e != nil && e.state == stConfirmed && e.try == int(m.TID) {
		// The group already formed here — a legitimate g_failure for this
		// attempt is impossible (only pending entries lose), so this is a
		// watchdog firing after a slow-but-successful formation, or a stale
		// duplicate. Tear down as a success: marking it failed would leave
		// the chunk's starvation reservation and squash history in place
		// forever, wedging the module.
		p.deallocate(mod, e, true)
		return
	}
	p.noteFailure(mod, m.Tag, int(m.TID), m.Line != 0)
	if e == nil || e.try > int(m.TID) {
		// No entry, or the entry belongs to a newer attempt: a delayed
		// duplicate failure of an older try must not tear down a newer
		// attempt's (possibly confirmed) entry. An entry with e.try below
		// the failed try is provably stale and falls through to teardown.
		return
	}
	if e.leader {
		p.sendCommitFailure(mod.id, e.tag, int(m.TID))
	}
	p.deallocate(mod, e, false)
}

// tagOlder imposes a global total order on chunks (lower sequence number
// first, processor ID as tie-break). It decides which starving chunk a
// module reserves itself for when several starve at once: without a global
// order, modules reserved for different chunks of overlapping groups
// deadlock each other — a failure mode §3.2.2 does not discuss but that
// arises immediately under heavy contention.
func tagOlder(a, b msg.CTag) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Proc < b.Proc
}

// noteFailure counts a chunk's commit failure and, past MAX, reserves the
// module for that chunk (§3.2.2). If the module is already reserved for a
// younger starving chunk, the reservation switches to the older one; the
// globally oldest starving chunk therefore eventually holds reservations at
// every module of its group and commits, guaranteeing forward progress.
func (p *Protocol) noteFailure(mod *module, tag msg.CTag, try int, countSquash bool) {
	h := mod.histFor(tag)
	if !h.failed || try > h.failedTry {
		h.failedTry, h.failed = try, true
	}
	if !countSquash {
		return
	}
	h.squashes++
	if h.squashes >= p.cfg.MaxSquashes &&
		(mod.reserved == nil || tagOlder(tag, *mod.reserved)) {
		t := tag
		mod.reserved = &t
		p.env.Trace.Instant(trace.KReserved, mod.id, true, tag, try)
	}
}

// DebugModule renders one directory module's CST for deadlock diagnostics.
func (p *Protocol) DebugModule(i int) string {
	mod := p.mods[i]
	lookout := mod.lookouts()
	if len(mod.cst) == 0 && mod.reserved == nil && len(lookout) == 0 {
		return ""
	}
	s := fmt.Sprintf("D%d reserved=%v lookout=%v:", mod.id, mod.reserved, lookout)
	for _, e := range mod.cst {
		s += fmt.Sprintf(" [%s try=%d st=%d sigs=%v g=%v leader=%v acks=%d gvec=%v]",
			e.tag, e.try, e.state, e.gotSigs, e.gotG, e.leader, e.acks.Outstanding(), e.gvec)
	}
	return s
}

// lookouts returns the module's pending commit_recall lookouts, tag → try.
func (mod *module) lookouts() map[msg.CTag]int {
	out := map[msg.CTag]int{}
	for proc, hs := range mod.hist {
		for _, h := range hs {
			if h.lookout {
				out[msg.CTag{Proc: proc, Seq: h.seq}] = h.lookoutTry
			}
		}
	}
	return out
}

// deallocate removes a CST entry; successful commits clear any reservation
// and failure history for the chunk, and other pending chunks blocked on
// this entry get another chance to advance.
func (p *Protocol) deallocate(mod *module, e *cstEntry, success bool) {
	mod.remove(e.tag)
	mod.retire(e)
	if e.state != stPending {
		p.k.HoldEnd(mod.id, e.tag, e.try)
		if p.env.Probe != nil {
			p.env.Probe.Released(mod.id, e.tag, e.try)
		}
	}
	if success {
		// A committed chunk never tries again: tombstone every attempt so
		// a contention-delayed message of an old attempt cannot form a
		// ghost group that blocks live chunks.
		h := mod.histFor(e.tag)
		h.squashes = 0
		h.failedTry, h.failed = int(^uint(0)>>1), true
		if mod.reserved != nil && *mod.reserved == e.tag {
			mod.reserved = nil
		}
	}
	// Unblocked entries may now win the module. tryAdvance can deallocate
	// (and recurse into this loop), so it walks a snapshot; the snapshot
	// lives in p.scratch above any caller's, indexed afresh each step
	// because a nested append may move the backing array.
	base := len(p.scratch)
	p.scratch = append(p.scratch, mod.cst...)
	for i, end := base, len(p.scratch); i < end; i++ {
		if o := p.scratch[i]; o.state == stPending {
			p.tryAdvance(mod, o)
		}
	}
	p.scratch = p.scratch[:base]
}

// PendingAttempts implements protocol.Engine: open watchdog-
// tracked attempts plus live CST entries — zero once every commit decided
// and every module tore its entries down.
func (p *Protocol) PendingAttempts() int {
	n := 0
	for _, ws := range p.watch {
		n += len(ws)
	}
	for _, mod := range p.mods {
		n += len(mod.cst)
	}
	return n
}
