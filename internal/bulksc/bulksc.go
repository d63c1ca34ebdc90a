// Package bulksc implements the BulkSC baseline commit protocol (Table 3:
// "Protocol from [5] with arbiter in the center"). A centralized arbiter —
// placed on the tile nearest the torus center — receives every commit
// request, allows concurrent commits of chunks whose address signatures are
// disjoint, and serializes its own decision making. The centralization is
// exactly what makes BulkSC scale poorly from 32 to 64 processors in the
// paper's Figure 13 (mean commit latency 98 → 2954 cycles).
package bulksc

import (
	"fmt"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/protocol/kernel"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/trace"
)

// Config tunes the arbiter.
type Config struct {
	// ServiceTime is the arbiter's base per-request decision time;
	// requests are serialized behind it (the centralization bottleneck).
	ServiceTime event.Time
	// PerInflight adds decision time per in-flight commit the request must
	// be intersected against. This load dependence is what collapses the
	// centralized arbiter between 32 and 64 processors (Figure 13: mean
	// commit latency 98 → 2954 cycles): more cores → more in-flight
	// signatures → slower decisions → longer queues → more in flight.
	PerInflight event.Time
	// RetryBackoff is how long a denied processor waits before re-sending
	// its permission-to-commit request.
	RetryBackoff event.Time
	// CommitDeadline is the stall watchdog: an attempt still awaiting its
	// arbiter decision this many cycles after the request is abandoned and
	// retried. It must be nonzero (DefaultConfig sets
	// protocol.DefaultCommitDeadline); protocol.WatchdogDisabled turns it
	// off.
	CommitDeadline event.Time
}

// DefaultConfig mirrors a fast centralized arbiter.
func DefaultConfig() Config {
	return Config{ServiceTime: 6, PerInflight: 5, RetryBackoff: 30, CommitDeadline: protocol.DefaultCommitDeadline}
}

// inflight is the arbiter's record of a granted commit. rsig and wsig point
// at the attempt's immutable signature snapshot (chunk.Sigs), shared with the
// arb_request that delivered it.
type inflight struct {
	tag        msg.CTag
	rsig, wsig *sig.Sig
	writeLines []sig.Line
	try        int
}

// commitJob is the committing processor's side of a granted commit. try is
// the attempt index snapshotted at RequestCommit — ck.Retries moves when the
// attempt is refused, so every message matched against this attempt uses the
// snapshot.
type commitJob struct {
	ck      *chunk.Chunk
	try     uint64
	granted bool
	// inv counts each responder's ack once (dup guard).
	inv kernel.AckSet[int]
}

// Protocol is the BulkSC engine; it implements protocol.Engine.
type Protocol struct {
	env *dir.Env
	cfg Config
	k   *kernel.Kernel

	arbNode  int
	busy     event.Time // arbiter pipeline: time its queue drains
	inflight []*inflight
	// requests holds copies of the arb_requests awaiting a decision, in
	// arrival order; decideFn pops and decides the head. Each decision
	// fires at the busy time of its arrival, and busy only grows, so the
	// decisions fire in arrival order.
	requests []msg.Msg
	decideFn event.Handler

	jobs map[int]*commitJob // committing processor → job
}

var _ protocol.Engine = (*Protocol)(nil)

// New builds a BulkSC engine over env.
func New(env *dir.Env, cfg Config) *Protocol {
	p := &Protocol{env: env, cfg: cfg, arbNode: env.Net.Center(), jobs: make(map[int]*commitJob)}
	p.k = kernel.New(env, cfg.CommitDeadline, p)
	p.decideFn = func() {
		m := &p.requests[0]
		p.requests = p.requests[1:]
		p.decide(m)
	}
	return p
}

// Stats implements protocol.Engine.
func (p *Protocol) Stats() map[string]uint64 {
	return map[string]uint64{"fail_watchdog": p.k.WD.Fired}
}

// RequestCommit implements dir.Protocol: send the signatures to the central
// arbiter and wait for OK / not-OK.
func (p *Protocol) RequestCommit(proc int, ck *chunk.Chunk) {
	p.k.Started(proc, ck)
	j := &commitJob{ck: ck, try: uint64(ck.Retries)}
	p.jobs[proc] = j
	sigs := ck.Snapshot()
	p.env.Net.Send(msg.Msg{
		Kind: msg.ArbRequest, Src: proc, Dst: p.arbNode, Tag: ck.Tag,
		RSig: &sigs.R, WSig: &sigs.W, WriteLines: ck.WriteLines,
		TID: j.try,
	})
	p.k.WD.Arm(proc, false, ck.Tag, ck.Retries)
}

// Probe implements kernel.Prober for the deadline armed at RequestCommit. An
// attempt already granted is past its serialization point (the arbiter
// checked it against everything in flight), so the deadline re-arms and
// keeps watching the ack collection; an attempt still awaiting its decision
// is abandoned and retried — a late grant for it is handed back with an
// abandoning arb_done so the arbiter's entry cannot leak.
func (p *Protocol) Probe(proc int, tag msg.CTag, try int) kernel.Disposition {
	j := p.jobs[proc]
	if j == nil || j.ck.Tag != tag || j.try != uint64(try) {
		return kernel.Closed
	}
	if j.granted {
		return kernel.Watching
	}
	return kernel.Stalled
}

// Stall implements kernel.Prober: abandon the attempt and retry.
func (p *Protocol) Stall(proc int, tag msg.CTag, try int) {
	delete(p.jobs, proc)
	p.env.Cores[proc].CommitRefused(tag)
}

// HandleDir implements dir.Protocol: arbiter-side processing.
func (p *Protocol) HandleDir(node int, m *msg.Msg) {
	if node != p.arbNode {
		panic(fmt.Sprintf("bulksc: directory message %s at non-arbiter node %d", m, node))
	}
	switch m.Kind {
	case msg.ArbRequest:
		p.onRequest(m)
	case msg.ArbDone:
		p.onDone(m)
	default:
		panic(fmt.Sprintf("bulksc: unexpected directory message %s", m))
	}
}

// onRequest queues the decision behind the arbiter's serialized pipeline.
func (p *Protocol) onRequest(m *msg.Msg) {
	now := p.env.Eng.Now()
	if p.busy < now {
		p.busy = now
	}
	p.busy += p.cfg.ServiceTime + p.cfg.PerInflight*event.Time(len(p.inflight))
	p.requests = append(p.requests, *m)
	p.env.Eng.At(p.busy, p.decideFn)
}

func (p *Protocol) decide(m *msg.Msg) {
	for _, f := range p.inflight {
		if f.tag == m.Tag && f.try == int(m.TID) {
			// Duplicate of an attempt already granted and in flight: resend
			// the grant (idempotent at the processor) instead of
			// self-conflicting on the signature intersection below.
			p.env.Net.Send(msg.Msg{Kind: msg.ArbGrant, Src: p.arbNode, Dst: m.Tag.Proc, Tag: m.Tag, TID: m.TID})
			return
		}
	}
	for _, f := range p.inflight {
		// The arbiter allows concurrent commits as long as the addresses a
		// chunk wrote do not overlap the addresses accessed by any other
		// committing chunk (§2.1).
		if m.W().Overlaps(f.wsig) || m.W().Overlaps(f.rsig) || m.R().Overlaps(f.wsig) {
			p.env.Trace.Emit(trace.Event{
				Kind: trace.KRefused, Node: p.arbNode, Dir: true,
				Tag: m.Tag, Try: int(m.TID), Cause: trace.CauseDenied,
				Other: f.tag, HasOther: true,
			})
			p.env.Net.Send(msg.Msg{Kind: msg.ArbDeny, Src: p.arbNode, Dst: m.Tag.Proc, Tag: m.Tag, TID: m.TID})
			return
		}
	}
	p.inflight = append(p.inflight, &inflight{
		tag: m.Tag, rsig: m.R(), wsig: m.W(), writeLines: m.WriteLines, try: int(m.TID),
	})
	p.k.HoldBegin(p.arbNode, m.Tag, int(m.TID))
	p.k.Formed(m.Tag.Proc, m.Tag.Seq, int(m.TID))
	p.env.Net.Send(msg.Msg{Kind: msg.ArbGrant, Src: p.arbNode, Dst: m.Tag.Proc, Tag: m.Tag, TID: m.TID})
}

func (p *Protocol) onDone(m *msg.Msg) {
	for i, f := range p.inflight {
		if f.tag == m.Tag && f.try == int(m.TID) {
			if !m.Abandon {
				// The commit is globally visible: update directory state.
				for _, l := range f.writeLines {
					p.env.ApplyCommitWrite(l, f.tag.Proc)
				}
			}
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			p.k.HoldEnd(p.arbNode, f.tag, f.try)
			return
		}
	}
}

// HandleProc implements dir.Protocol: committing-processor side.
func (p *Protocol) HandleProc(node int, m *msg.Msg) {
	switch m.Kind {
	case msg.ArbGrant:
		p.onGrant(node, m)
	case msg.ArbDeny:
		p.onDeny(node, m)
	case msg.ArbInv:
		// Bulk invalidation from another committing processor. A processor
		// awaiting its arbiter decision defers it (no ack until consumed);
		// otherwise invalidate, disambiguate, and ack.
		if p.env.Cores[node].MaybeDefer(m) {
			return
		}
		p.env.Cores[node].BulkInvalidate(m.W(), m.WriteLines, nil)
		p.env.Net.Send(msg.Msg{Kind: msg.ArbInvAck, Src: node, Dst: m.Src, Tag: m.Tag, TID: m.TID})
	case msg.ArbInvAck:
		p.onInvAck(node, m)
	default:
		panic(fmt.Sprintf("bulksc: unexpected processor message %s", m))
	}
}

// onGrant: OK to commit — broadcast the W signature to every other
// processor for cached-line invalidation and chunk disambiguation.
func (p *Protocol) onGrant(node int, m *msg.Msg) {
	job := p.jobs[node]
	if job == nil || job.ck.Tag != m.Tag || job.try != m.TID {
		// Stale grant (the watchdog abandoned this attempt, or the grant was
		// duplicated past the commit): the arbiter is holding an in-flight
		// entry for a dead attempt — tear it down, without applying its
		// writes, or every overlapping commit is denied forever.
		p.env.Net.Send(msg.Msg{Kind: msg.ArbDone, Src: node, Dst: p.arbNode, Tag: m.Tag, TID: m.TID, Abandon: true})
		return
	}
	if job.granted {
		return // duplicate grant; invalidations already broadcast
	}
	job.granted = true
	// The decision arrived: the conservative deferral window ends and any
	// buffered invalidations are consumed (they cannot conflict with the
	// granted chunk — the arbiter checked it against everything their
	// senders still have in flight).
	p.env.Cores[node].ResumeInvalidations()
	n := p.env.Net.Nodes()
	job.inv.Expect(n - 1)
	if job.inv.Done() {
		p.complete(node, job)
		return
	}
	w := &job.ck.Snapshot().W
	for d := 0; d < n; d++ {
		if d == node {
			continue
		}
		p.env.Net.Send(msg.Msg{
			Kind: msg.ArbInv, Src: node, Dst: d, Tag: m.Tag, TID: job.try,
			WSig: w, WriteLines: job.ck.WriteLines,
		})
	}
}

func (p *Protocol) onDeny(node int, m *msg.Msg) {
	job := p.jobs[node]
	if job == nil || job.ck.Tag != m.Tag || job.try != m.TID || job.granted {
		return // stale or duplicated deny; a granted attempt ignores it
	}
	delete(p.jobs, node)
	p.env.Cores[node].CommitRefused(m.Tag)
}

func (p *Protocol) onInvAck(node int, m *msg.Msg) {
	job := p.jobs[node]
	if job == nil || job.ck.Tag != m.Tag || job.try != m.TID || !job.granted {
		return
	}
	if !job.inv.Ack(m.Src) {
		return // duplicate ack from the same responder
	}
	if job.inv.Done() {
		p.complete(node, job)
	}
}

func (p *Protocol) complete(node int, job *commitJob) {
	delete(p.jobs, node)
	tag := job.ck.Tag
	p.k.Done(node, false, tag, int(job.try))
	p.env.Net.Send(msg.Msg{Kind: msg.ArbDone, Src: node, Dst: p.arbNode, Tag: tag, TID: job.try})
	p.env.Cores[node].CommitFinished(tag)
}

// DebugModule renders the arbiter's in-flight table for deadlock
// diagnostics (non-arbiter nodes hold no protocol state).
func (p *Protocol) DebugModule(i int) string {
	if i != p.arbNode || len(p.inflight) == 0 {
		return ""
	}
	s := fmt.Sprintf("ARB@%d busy=%d inflight:", p.arbNode, p.busy)
	for _, f := range p.inflight {
		s += fmt.Sprintf(" %s try=%d", f.tag, f.try)
	}
	return s
}

// ReadBlocked implements dir.Protocol: BulkSC directories hold no committing
// signatures, so reads are never nacked at the directory.
//
// Note on squash safety: BulkSC processors are conservative (§3.3) — they
// buffer incoming invalidation signatures while awaiting the arbiter's
// decision and ack only on consumption, so a sender stays in-flight at the
// arbiter until every receiver consumed its W signature. A chunk whose
// commit has been granted therefore can never be squashed by a buffered
// invalidation: the arbiter checked it against everything still in flight.
func (p *Protocol) ReadBlocked(node int, l sig.Line) bool { return false }

// PendingAttempts implements protocol.Engine: live commit jobs
// plus arbiter in-flight table entries.
func (p *Protocol) PendingAttempts() int {
	return len(p.jobs) + len(p.inflight)
}
