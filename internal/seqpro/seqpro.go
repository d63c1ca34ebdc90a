// Package seqpro implements the SEQ-PRO baseline from SRC (Table 3:
// "SEQ-PRO from [14]"): a committing processor occupies the directory
// modules in its read- and write-sets one at a time, in ascending order; an
// occupied module queues later requesters. Occupation is exclusive, so two
// chunks that accessed different addresses homed at the same module still
// serialize — the shortcoming ScalableBulk removes (§2.1).
package seqpro

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
)

// Config tunes the protocol.
type Config struct {
	// CommitDeadline is the stall watchdog: an occupation chain still
	// incomplete this many cycles after its request unwinds (occupied
	// modules release) and the processor retries. It must be nonzero
	// (DefaultConfig sets protocol.DefaultCommitDeadline);
	// protocol.WatchdogDisabled turns it off.
	CommitDeadline event.Time
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config { return Config{CommitDeadline: protocol.DefaultCommitDeadline} }

// modState is one directory module's occupancy.
type modState struct {
	occupant *occupancy
	queue    []msg.Msg // copies of waiting seq_occupy requests, FIFO
}

// occupancy describes who holds a module and with what write set (for read
// nacking). The attempt index disambiguates occupancies of retried chunks:
// a duplicated release of attempt N must not free attempt N+1's occupancy
// of the same tag. wsig points at the attempt's immutable signature
// snapshot (chunk.Sigs), shared with the seq_occupy that delivered it.
type occupancy struct {
	tag  msg.CTag
	try  uint64
	wsig *sig.Sig
}

// job is the committing processor's sequential occupation chain. try is the
// attempt index snapshotted at RequestCommit: ck.Retries changes under our
// feet when a bulk invalidation squashes the in-flight chunk (the processor
// increments it before Abort runs), so every message this attempt sends must
// use the snapshot or its releases would miss the try-0 occupancies.
type job struct {
	ck       *chunk.Chunk
	try      uint64
	nextIdx  int   // next directory in ck.Dirs to occupy
	occupied []int // modules granted so far
	// inv counts each sharer's invalidation ack once (dup guard).
	inv     kernel.AckSet[int]
	aborted bool
}

// Protocol is the SEQ-PRO engine; it implements protocol.Engine.
type Protocol struct {
	env  *dir.Env
	cfg  Config
	k    *kernel.Kernel
	mods []*modState
	jobs map[int]*job
}

var _ protocol.Engine = (*Protocol)(nil)

// New builds a SEQ-PRO engine over env.
func New(env *dir.Env, cfg Config) *Protocol {
	p := &Protocol{env: env, cfg: cfg, jobs: make(map[int]*job)}
	p.k = kernel.New(env, cfg.CommitDeadline, p)
	for i := 0; i < env.Net.Nodes(); i++ {
		p.mods = append(p.mods, &modState{})
	}
	return p
}

// Stats implements protocol.Engine.
func (p *Protocol) Stats() map[string]uint64 {
	return map[string]uint64{"fail_watchdog": p.k.WD.Fired}
}

// RequestCommit implements dir.Protocol: start the ascending occupation.
func (p *Protocol) RequestCommit(proc int, ck *chunk.Chunk) {
	p.k.Started(proc, ck)
	j := &job{ck: ck, try: uint64(ck.Retries)}
	p.jobs[proc] = j
	if len(ck.Dirs) == 0 {
		p.formed(proc, j)
		return
	}
	p.occupyNext(proc, j)
	p.k.WD.Arm(proc, false, ck.Tag, ck.Retries)
}

// Probe implements kernel.Prober for the deadline armed at RequestCommit. A
// fired watchdog unwinds an attempt still building its occupation chain; an
// attempt already formed applied its writes and is past its serialization
// point, so the deadline re-arms and keeps watching the ack collection.
func (p *Protocol) Probe(proc int, tag msg.CTag, try int) kernel.Disposition {
	j := p.jobs[proc]
	if j == nil || j.ck.Tag != tag || j.try != uint64(try) || j.aborted {
		return kernel.Closed
	}
	if j.nextIdx >= len(j.ck.Dirs) {
		return kernel.Watching
	}
	return kernel.Stalled
}

// Stall implements kernel.Prober: unwind the chain and retry.
func (p *Protocol) Stall(proc int, tag msg.CTag, try int) {
	p.Abort(proc, tag)
	p.env.Cores[proc].CommitRefused(tag)
}

func (p *Protocol) occupyNext(proc int, j *job) {
	d := j.ck.Dirs[j.nextIdx]
	p.env.Net.Send(msg.Msg{
		Kind: msg.SeqOccupy, Src: proc, Dst: d, Tag: j.ck.Tag,
		WSig: &j.ck.Snapshot().W, TID: j.try,
	})
}

// HandleDir implements dir.Protocol: occupy/release at a module.
func (p *Protocol) HandleDir(node int, m *msg.Msg) {
	ms := p.mods[node]
	switch m.Kind {
	case msg.SeqOccupy:
		if ms.occupant != nil && ms.occupant.tag == m.Tag && ms.occupant.try == m.TID {
			return // duplicate of the current occupancy; grant already sent
		}
		for _, q := range ms.queue {
			if q.Tag == m.Tag && q.TID == m.TID {
				return // duplicate of a queued request
			}
		}
		if ms.occupant == nil {
			ms.occupant = &occupancy{tag: m.Tag, try: m.TID, wsig: m.W()}
			p.k.HoldBegin(node, m.Tag, int(m.TID))
			p.env.Net.SendAt(p.env.Eng.Now()+dir.LookupLatency, msg.Msg{Kind: msg.SeqGrant, Src: node, Dst: m.Tag.Proc, Tag: m.Tag, TID: m.TID})
		} else {
			// The transaction blocks if the directory is taken (§2.1).
			ms.queue = append(ms.queue, *m)
		}
	case msg.SeqRelease:
		if ms.occupant == nil || ms.occupant.tag != m.Tag || ms.occupant.try != m.TID {
			// Release for a stale occupancy (aborted before the grant was
			// consumed): drop any queued request of the same attempt instead.
			for i, q := range ms.queue {
				if q.Tag == m.Tag && q.TID == m.TID {
					ms.queue = append(ms.queue[:i], ms.queue[i+1:]...)
					break
				}
			}
			return
		}
		p.k.HoldEnd(node, m.Tag, int(m.TID))
		ms.occupant = nil
		if len(ms.queue) > 0 {
			next := &ms.queue[0]
			ms.queue = ms.queue[1:]
			ms.occupant = &occupancy{tag: next.Tag, try: next.TID, wsig: next.W()}
			p.k.HoldBegin(node, next.Tag, int(next.TID))
			p.env.Net.SendAt(p.env.Eng.Now()+dir.LookupLatency, msg.Msg{Kind: msg.SeqGrant, Src: node, Dst: next.Tag.Proc, Tag: next.Tag, TID: next.TID})
		}
	default:
		panic(fmt.Sprintf("seqpro: unexpected directory message %s", m))
	}
}

// HandleProc implements dir.Protocol: grant/invalidation handling at the
// committing processor.
func (p *Protocol) HandleProc(node int, m *msg.Msg) {
	switch m.Kind {
	case msg.SeqGrant:
		p.onGrant(node, m)
	case msg.SeqInval:
		// A formed job is past its serialization point: its occupation
		// chain serialized it against every conflicting commit, so the
		// invalidating writer formed after it and this chunk's reads stay
		// valid. Squashing it would re-run a commit whose writes are
		// already applied — committing the chunk twice. The cached copies
		// still die and younger chunks still squash.
		var immune *msg.CTag
		if j := p.jobs[node]; j != nil && !j.aborted && j.nextIdx >= len(j.ck.Dirs) {
			t := j.ck.Tag
			immune = &t
		}
		squashed := p.env.Cores[node].BulkInvalidate(m.W(), m.WriteLines, immune)
		p.env.Net.Send(msg.Msg{Kind: msg.SeqInvalAck, Src: node, Dst: m.Src, Tag: m.Tag})
		if squashed != nil {
			// The squashed chunk's occupation chain must unwind so other
			// chunks queued at its modules can progress.
			p.Abort(node, *squashed)
		}
	case msg.SeqInvalAck:
		p.onInvAck(node, m)
	default:
		panic(fmt.Sprintf("seqpro: unexpected processor message %s", m))
	}
}

func (p *Protocol) onGrant(proc int, m *msg.Msg) {
	j := p.jobs[proc]
	if j == nil || j.ck.Tag != m.Tag || j.aborted || j.try != m.TID {
		// Stale grant (after an abort, or for an older attempt): hand the
		// module straight back, echoing the grant's attempt index so only
		// the matching ghost occupancy is freed.
		p.env.Net.Send(msg.Msg{Kind: msg.SeqRelease, Src: proc, Dst: m.Src, Tag: m.Tag, TID: m.TID})
		return
	}
	for _, d := range j.occupied {
		if d == m.Src {
			return // duplicate grant for a module this attempt already holds
		}
	}
	if j.nextIdx >= len(j.ck.Dirs) || m.Src != j.ck.Dirs[j.nextIdx] {
		// Grant from a module this attempt is not waiting on (a duplicated
		// occupy minted a ghost occupancy after the chain released): free it.
		p.env.Net.Send(msg.Msg{Kind: msg.SeqRelease, Src: proc, Dst: m.Src, Tag: m.Tag, TID: m.TID})
		return
	}
	j.occupied = append(j.occupied, m.Src)
	j.nextIdx++
	if j.nextIdx < len(j.ck.Dirs) {
		p.occupyNext(proc, j)
		return
	}
	p.formed(proc, j)
}

// formed: every module is occupied — the commit is authorized. Send the W
// signature to all sharers of the write set for invalidation and
// disambiguation.
func (p *Protocol) formed(proc int, j *job) {
	p.k.Formed(proc, j.ck.Tag.Seq, j.ck.Retries)
	p.env.Coll.SampleQueue(p.queuedChunks())

	var sharers bitset.Set
	p.env.State.SharersOfAll(j.ck.WriteLines, proc, &sharers)
	targets := sharers.Members()
	j.inv.Expect(len(targets))
	// The occupied modules serialized this commit against every conflicting
	// one; once the invalidations are on the wire the directory state can
	// be updated and the modules released, so queued chunks stop convoying
	// behind the (slow) invalidation round trip. The committer itself still
	// waits for every ack before declaring the chunk committed.
	for _, l := range j.ck.WriteLines {
		p.env.ApplyCommitWrite(l, proc)
	}
	w := &j.ck.Snapshot().W
	for _, t := range targets {
		p.env.Net.Send(msg.Msg{
			Kind: msg.SeqInval, Src: proc, Dst: t, Tag: j.ck.Tag,
			WSig: w, WriteLines: j.ck.WriteLines,
		})
	}
	p.releaseAll(proc, j)
	if j.inv.Done() {
		p.complete(proc, j)
	}
}

// queuedChunks counts chunks machine-wide whose occupation is blocked in
// some module's queue (the Figures 16/17 metric). A chunk waits in at most
// one queue at a time because occupation is sequential.
func (p *Protocol) queuedChunks() int {
	n := 0
	for _, ms := range p.mods {
		n += len(ms.queue)
	}
	return n
}

func (p *Protocol) onInvAck(proc int, m *msg.Msg) {
	j := p.jobs[proc]
	if j == nil || j.ck.Tag != m.Tag || j.aborted {
		return
	}
	if !j.inv.Ack(m.Src) {
		return // duplicate ack from the same sharer
	}
	if j.inv.Done() {
		p.complete(proc, j)
	}
}

func (p *Protocol) complete(proc int, j *job) {
	delete(p.jobs, proc)
	p.k.Done(proc, false, j.ck.Tag, int(j.try))
	p.env.Cores[proc].CommitFinished(j.ck.Tag)
}

func (p *Protocol) releaseAll(proc int, j *job) {
	for _, d := range j.occupied {
		p.env.Net.Send(msg.Msg{Kind: msg.SeqRelease, Src: proc, Dst: d, Tag: j.ck.Tag, TID: j.try})
	}
	j.occupied = nil
}

// Abort unwinds a squashed chunk's occupation chain: occupied modules are
// released and any in-flight occupy request is withdrawn. The processor
// model calls this when a bulk invalidation squashes its in-flight commit.
func (p *Protocol) Abort(proc int, tag msg.CTag) {
	j := p.jobs[proc]
	if j == nil || j.ck.Tag != tag || j.aborted {
		return
	}
	if j.nextIdx >= len(j.ck.Dirs) {
		// Already formed: the occupancy serialized this commit and its
		// writes are applied — it is past its serialization point and
		// cannot be cancelled. The processor's re-execution will be
		// abandoned when the (late) completion arrives.
		return
	}
	j.aborted = true
	// Withdraw the outstanding occupy (it may be queued at the module or
	// its grant may already be in flight; both are handled at receipt).
	if j.nextIdx < len(j.ck.Dirs) {
		d := j.ck.Dirs[j.nextIdx]
		p.env.Net.Send(msg.Msg{Kind: msg.SeqRelease, Src: proc, Dst: d, Tag: tag, TID: j.try})
	}
	p.releaseAll(proc, j)
	delete(p.jobs, proc)
}

// DebugModule renders one directory module's occupancy for deadlock
// diagnostics.
func (p *Protocol) DebugModule(i int) string {
	ms := p.mods[i]
	if ms.occupant == nil && len(ms.queue) == 0 {
		return ""
	}
	s := fmt.Sprintf("D%d:", i)
	if ms.occupant != nil {
		s += fmt.Sprintf(" occupant=%s try=%d", ms.occupant.tag, ms.occupant.try)
	}
	for _, q := range ms.queue {
		s += fmt.Sprintf(" queued[%s try=%d]", q.Tag, q.TID)
	}
	return s
}

// ReadBlocked implements dir.Protocol: loads hitting the occupant's write
// signature are nacked, as in ScalableBulk's §3.1 primitive.
func (p *Protocol) ReadBlocked(node int, l sig.Line) bool {
	occ := p.mods[node].occupant
	return occ != nil && occ.wsig.Member(l)
}

// PendingAttempts implements protocol.Engine: live occupation
// chains plus directory-side residue. A ghost occupancy (held module with no
// live job) or a stranded queue entry counts here even though every chunk
// committed — exactly the leak class the PR 1 livelock fix closed.
func (p *Protocol) PendingAttempts() int {
	n := len(p.jobs)
	for _, m := range p.mods {
		if m.occupant != nil {
			n++
		}
		n += len(m.queue)
	}
	return n
}
