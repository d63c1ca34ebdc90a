// Package proc models one tile's processor: a 1-IPC core with private
// L1/L2 caches that continuously executes 2000-instruction chunks (Table 2),
// keeps up to two chunks in flight (executing the next chunk while the
// previous one commits), disambiguates incoming invalidations against its
// chunks' signatures, squashes and re-executes on conflicts, and accounts
// every cycle into the Useful / Cache Miss / Commit / Squash breakdown of
// Figures 7 and 8.
package proc

import (
	"fmt"
	"math/rand"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/rng"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
)

// Generator produces the chunk stream of one thread. It must be
// deterministic in (proc, seq): repeated runs of one configuration, trace
// recording and the model checker's re-runs rely on it. The processor asks
// for each seq once and re-executes a squashed or abandoned chunk from its
// own copy.
type Generator interface {
	NextChunk(proc int, seq uint64) *chunk.Chunk
}

// The processor model's fixed timing and pipeline depth.
const (
	// l2Latency is the private L2 round trip beyond the (hidden) L1 time.
	l2Latency event.Time = 8
	// maxActiveChunks caps in-flight chunks per core (Table 2: 2 — one
	// committing plus one executing).
	maxActiveChunks = 2
	// retryBackoff is the wait before retrying a failed commit; a per-core
	// jitter is added to break symmetric livelock.
	retryBackoff event.Time = 48
	// nackRetry is the wait before re-issuing a nacked read (§3.1).
	nackRetry event.Time = 20
)

// Config tunes the processor model.
type Config struct {
	// ConservativeInv buffers incoming invalidation signatures while a
	// commit decision is pending, acknowledging only on consumption — the
	// pre-OCI behavior of Figure 4(c) and of BulkSC.
	ConservativeInv bool
	// OCIRecall piggy-backs commit_recall on bulk_inv_ack when an
	// invalidation squashes the in-flight commit (ScalableBulk §3.3).
	OCIRecall bool
	// Seed randomizes backoff jitter deterministically.
	Seed int64
	// OnDone, when non-nil, fires once when this core commits its last
	// target chunk (the done transition). The system layer uses it to keep
	// an O(1) all-done counter instead of scanning every core per step.
	OnDone func(core int)
}

// Proc is one processor. It implements dir.Core.
type Proc struct {
	ID    int
	env   *dir.Env
	proto dir.Protocol
	hier  *cache.Hierarchy
	gen   Generator
	cfg   Config
	rng   *rand.Rand

	nextSeq uint64
	target  int
	done    bool

	// Pipeline slots. Invariant: `finished` is only non-nil while
	// `committing` occupies the commit slot (the core stalls).
	executing *chunk.Chunk
	execEpoch uint64 // invalidates stale execution continuations
	pc        int

	committing  *chunk.Chunk
	commitReqAt event.Time

	finished   *chunk.Chunk
	stallStart event.Time

	// spare is the younger chunk an in-flight squash abandoned. Its seq is
	// nextSeq until startNextChunk re-executes it, so the generator serves
	// each (proc, seq) once.
	spare *chunk.Chunk

	// read is the outstanding read miss while reading is set. readSeq
	// numbers the misses issued, so a nack retry can tell whether the miss
	// it retries is still the outstanding one.
	read     pendingRead
	reading  bool
	readSeq  uint64
	lastMiss sig.Line  // previous miss line, for the spatial prefetcher
	deferred []msg.Msg // conservative-mode buffered invalidations
	draining bool      // consuming deferred messages: do not re-defer
	awaiting bool      // commit decision pending (conservative window)

	// Exec-span bookkeeping (tracing only). execOpen guarantees every begun
	// KExec span ends exactly once, whichever of the abandon paths fires.
	execOpen bool
	execTag  msg.CTag
	execTry  int
	// invTag is the committing chunk behind the invalidation currently being
	// applied, so squash events can name their preemptor.
	invTag   msg.CTag
	invTagOK bool

	// Pooled payloads of this core's own timed events (read issue, end of
	// execution, commit retry), and their handlers, bound once.
	evFree                                 []*procEvent
	issueReadFn, finishFn, retryFn, nackFn func(any)

	// Accounting.
	Acct      stats.Breakdown
	Committed int
	Squashes  int
	FinishAt  event.Time // when this core committed its last target chunk
}

// procEvent is the payload of a pooled processor event. A stale event (one
// whose execution epoch was squashed) still carries its own access and
// epoch, exactly what a closure would have captured.
type procEvent struct {
	acc   chunk.Access
	epoch uint64
	read  uint64 // readSeq of the miss a nack retry re-issues
	ck    *chunk.Chunk
}

// after schedules fn(ev) d cycles from now on a pooled event payload.
func (p *Proc) after(d event.Time, fn func(any), acc chunk.Access, epoch, read uint64, ck *chunk.Chunk) {
	var ev *procEvent
	if n := len(p.evFree); n > 0 {
		ev = p.evFree[n-1]
		p.evFree = p.evFree[:n-1]
	} else {
		ev = &procEvent{}
	}
	ev.acc, ev.epoch, ev.read, ev.ck = acc, epoch, read, ck
	p.env.Eng.AtArg(p.env.Eng.Now()+d, fn, ev)
}

// take returns an event's payload and recycles the event.
func (p *Proc) take(arg any) procEvent {
	ev := arg.(*procEvent)
	v := *ev
	ev.ck = nil
	p.evFree = append(p.evFree, ev)
	return v
}

type pendingRead struct {
	acc      chunk.Access
	issuedAt event.Time
	epoch    uint64
}

// New builds a processor. l1 and l2 size the private hierarchy (Table 2).
func New(env *dir.Env, proto dir.Protocol, gen Generator, id, target int, l1, l2 cache.Config, cfg Config) *Proc {
	p := &Proc{
		ID: id, env: env, proto: proto, gen: gen, cfg: cfg,
		hier:   cache.NewHierarchy(l1, l2),
		target: target,
		rng:    rng.New(cfg.Seed + int64(id)*7919),
	}
	if target <= 0 {
		p.done = true // nothing to do: born finished
	}
	p.issueReadFn = func(arg any) { ev := p.take(arg); p.issueRead(ev.acc, ev.epoch) }
	p.finishFn = func(arg any) { p.finishExecution(p.take(arg).epoch) }
	p.retryFn = func(arg any) { p.retryCommit(p.take(arg).ck) }
	p.nackFn = func(arg any) { ev := p.take(arg); p.retryRead(ev.acc.Line, ev.epoch, ev.read) }
	return p
}

var _ dir.Core = (*Proc)(nil)

// Hierarchy exposes the cache hierarchy (for tests and tooling).
func (p *Proc) Hierarchy() *cache.Hierarchy { return p.hier }

// Done reports whether the core committed its target number of chunks.
func (p *Proc) Done() bool { return p.done }

// Start begins executing the chunk stream.
func (p *Proc) Start() { p.startNextChunk() }

func (p *Proc) startNextChunk() {
	if p.done || p.executing != nil || p.finished != nil {
		return
	}
	active := 0
	if p.committing != nil {
		active++
	}
	if active >= maxActiveChunks {
		return
	}
	if p.Committed+active >= p.target {
		return // enough chunks in flight to reach the target
	}
	p.beginExecute(p.nextChunk())
}

// nextChunk returns the chunk at nextSeq and advances it: the spare when an
// in-flight squash left it there, a new one from the generator otherwise.
func (p *Proc) nextChunk() *chunk.Chunk {
	ck := p.spare
	p.spare = nil
	if ck != nil && ck.Tag.Seq == p.nextSeq {
		ck.Reset()
	} else {
		ck = p.gen.NextChunk(p.ID, p.nextSeq)
	}
	p.nextSeq++
	return ck
}

// traceExecBegin opens the chunk's execution span on this core's track.
func (p *Proc) traceExecBegin(ck *chunk.Chunk) {
	if !p.env.Trace.Enabled() {
		return
	}
	p.execOpen, p.execTag, p.execTry = true, ck.Tag, ck.Retries
	p.env.Trace.Span(trace.KExec, trace.PhaseBegin, p.ID, false, ck.Tag, ck.Retries)
}

// traceExecEnd closes the open execution span, if any. Safe to call on every
// path that stops or abandons the executing chunk.
func (p *Proc) traceExecEnd() {
	if !p.execOpen {
		return
	}
	p.execOpen = false
	p.env.Trace.Span(trace.KExec, trace.PhaseEnd, p.ID, false, p.execTag, p.execTry)
}

// traceSquash records one squash with its cause and, when known, the
// committing chunk that triggered it.
func (p *Proc) traceSquash(ck *chunk.Chunk, trueConflict bool) {
	if !p.env.Trace.Enabled() {
		return
	}
	cause := trace.CauseAliasing
	if trueConflict {
		cause = trace.CauseConflict
	}
	p.env.Trace.Emit(trace.Event{
		Kind: trace.KSquash, Node: p.ID, Tag: ck.Tag, Try: ck.Retries,
		Cause: cause, Other: p.invTag, HasOther: p.invTagOK,
	})
}

// beginExecute (re)starts a chunk from its first access.
func (p *Proc) beginExecute(ck *chunk.Chunk) {
	p.traceExecEnd()
	p.executing = ck
	p.pc = 0
	ck.ExecUseful, ck.ExecMiss = 0, 0
	ck.RSig.Clear()
	ck.WSig.Clear()
	p.execEpoch++
	p.reading = false
	p.traceExecBegin(ck)
	p.step(p.execEpoch)
}

// prefetchStall is the residual stall of a miss hidden by the spatial
// streamer (line contiguous with the previous miss).
const prefetchStall event.Time = 12

// writeMissStall is the store-buffer cost of a write miss; stores need no
// coherence permission in a lazy chunk machine.
const writeMissStall event.Time = 4

// instrGap spreads the chunk's non-memory instructions evenly between its
// accesses: one cycle per instruction (1 IPC).
func instrGap(ck *chunk.Chunk) event.Time {
	return event.Time(ck.Instr / (len(ck.Accesses) + 1))
}

// step runs the executing chunk forward, batching cache hits locally and
// yielding to the event engine on a miss or at chunk end.
func (p *Proc) step(epoch uint64) {
	if epoch != p.execEpoch || p.executing == nil {
		return
	}
	ck := p.executing
	gap := instrGap(ck)
	var local event.Time
	for p.pc < len(ck.Accesses) {
		a := ck.Accesses[p.pc]
		local += gap
		ck.ExecUseful += uint64(gap)
		// Signatures are built incrementally in hardware as the chunk
		// executes, so mid-chunk disambiguation works.
		if a.Write {
			ck.WSig.Insert(a.Line)
		} else {
			ck.RSig.Insert(a.Line)
		}
		lvl := p.hier.Access(a.Line, a.Write)
		p.pc++
		switch lvl {
		case cache.L1Hit:
			// 2-cycle round trip, hidden by the pipeline.
		case cache.L2Hit:
			local += l2Latency
			ck.ExecMiss += uint64(l2Latency)
		case cache.Miss:
			if a.Write {
				// Writes never block: in a lazy chunk machine a store
				// needs no coherence permission — the line is allocated
				// locally and stays speculative until commit (§2). The
				// read request still goes out so the directory learns the
				// writer caches the line (and for traffic accounting).
				local += writeMissStall
				ck.ExecMiss += uint64(writeMissStall)
				p.sendRead(a.Line)
				p.hier.Fill(a.Line, true)
				continue
			}
			if a.Line == p.lastMiss+1 {
				// Spatial streaming: the prefetcher already has the next
				// line of the run in flight (MSHRs, Table 2), so the core
				// pays only a short drain instead of the full round trip.
				// The read still goes out for directory bookkeeping and
				// traffic accounting; its reply is consumed silently.
				p.lastMiss = a.Line
				local += prefetchStall
				ck.ExecMiss += uint64(prefetchStall)
				p.sendRead(a.Line)
				p.hier.Fill(a.Line, a.Write)
				continue
			}
			p.after(local, p.issueReadFn, a, epoch, 0, nil)
			return
		}
	}
	local += gap
	ck.ExecUseful += uint64(gap)
	p.after(local, p.finishFn, chunk.Access{}, epoch, 0, nil)
}

// issueRead sends the miss to the line's home directory.
func (p *Proc) issueRead(a chunk.Access, epoch uint64) {
	if epoch != p.execEpoch {
		return
	}
	p.read = pendingRead{acc: a, issuedAt: p.env.Eng.Now(), epoch: epoch}
	p.reading = true
	p.readSeq++
	p.sendRead(a.Line)
}

func (p *Proc) sendRead(l sig.Line) {
	home := p.env.Map.Home(l, p.ID)
	p.env.Net.Send(msg.Msg{Kind: msg.ReadReq, Src: p.ID, Dst: home, Tag: msg.CTag{Proc: p.ID}, Line: l})
}

func (p *Proc) onReadReply(m *msg.Msg) {
	pr := &p.read
	if !p.reading || pr.acc.Line != m.Line || pr.epoch != p.execEpoch {
		return // stale reply for a squashed execution
	}
	p.reading = false
	stall := uint64(p.env.Eng.Now() - pr.issuedAt)
	p.lastMiss = m.Line
	p.executing.ExecMiss += stall
	p.hier.Fill(m.Line, pr.acc.Write)
	p.step(p.execEpoch)
}

func (p *Proc) onReadNack(m *msg.Msg) {
	pr := &p.read
	if !p.reading || pr.acc.Line != m.Line || pr.epoch != p.execEpoch {
		return
	}
	// Keep issuedAt: the retry time is part of the miss stall. Re-issue
	// after a short backoff (§3.1: bounced requests are retried).
	p.after(nackRetry, p.nackFn, pr.acc, pr.epoch, p.readSeq, nil)
}

// retryRead re-issues a nacked miss, unless its execution was squashed or
// the miss is no longer the outstanding one.
func (p *Proc) retryRead(line sig.Line, epoch, read uint64) {
	if epoch != p.execEpoch || !p.reading || p.readSeq != read {
		return
	}
	p.sendRead(line)
}

// finishExecution: the chunk completed; request its commit or stall if the
// commit slot is occupied.
func (p *Proc) finishExecution(epoch uint64) {
	if epoch != p.execEpoch || p.executing == nil {
		return
	}
	ck := p.executing
	p.executing = nil
	p.traceExecEnd()
	ck.Finalize(func(l sig.Line) int { return p.env.Map.Home(l, p.ID) })
	if p.committing == nil {
		p.submitCommit(ck)
		p.startNextChunk()
		return
	}
	// Commit stall: the previous chunk has not finished committing
	// (Figures 7/8, "Commit" category).
	p.finished = ck
	p.stallStart = p.env.Eng.Now()
}

func (p *Proc) submitCommit(ck *chunk.Chunk) {
	p.committing = ck
	p.commitReqAt = p.env.Eng.Now()
	p.awaiting = true
	p.requestCommit(ck)
}

// requestCommit hands a chunk to the protocol engine, notifying the probe.
func (p *Proc) requestCommit(ck *chunk.Chunk) {
	if p.env.Probe != nil {
		p.env.Probe.CommitRequested(p.ID, ck)
	}
	p.proto.RequestCommit(p.ID, ck)
}

// CommitFinished implements dir.Core.
func (p *Proc) CommitFinished(tag msg.CTag) {
	if p.committing != nil && p.committing.Tag == tag {
		p.completeCommit()
		return
	}
	// Late commit_success for a chunk that was squashed under OCI and is
	// re-executing: the squash was provably due to signature aliasing (a
	// true conflict always shares a home module and fails the group), so
	// the commit stands and the re-execution is abandoned.
	if p.executing != nil && p.executing.Tag == tag {
		ck := p.executing
		p.Acct.Squash += ck.ExecUseful + ck.ExecMiss // partial re-execution wasted
		p.executing = nil
		p.traceExecEnd()
		p.execEpoch++
		p.reading = false
		// The commit stands, so it lands in the collector like any other.
		p.commitSucceeded(ck)
		p.startNextChunk()
	}
}

func (p *Proc) completeCommit() {
	ck := p.committing
	p.committing = nil
	p.awaiting = false
	now := p.env.Eng.Now()
	p.commitSucceeded(ck)
	p.drainDeferred()
	if p.done {
		return
	}
	if p.finished != nil {
		p.Acct.Commit += uint64(now - p.stallStart)
		next := p.finished
		p.finished = nil
		p.submitCommit(next)
	}
	p.startNextChunk()
}

// commitEnded closes ck's current commit attempt in the collector and
// reports it to the probe.
func (p *Proc) commitEnded(ck *chunk.Chunk, now event.Time, success bool) {
	p.env.Coll.CommitEnded(p.ID, ck.Tag.Seq, ck.Retries, now, success)
	if p.env.Probe != nil {
		p.env.Probe.CommitEnded(p.ID, ck.Tag.Seq, ck.Retries, success)
	}
}

// commitSucceeded records ck's successful commit — its attempt's end, its
// latency and directory samples, which Result.Validate checks against the
// commit count — and retires it: caches finalize its lines and its
// execution cycles land in the Useful/CacheMiss buckets. Both success paths
// of CommitFinished go through it.
func (p *Proc) commitSucceeded(ck *chunk.Chunk) {
	now := p.env.Eng.Now()
	p.commitEnded(ck, now, true)
	p.env.Coll.CommitLatency(now - p.commitReqAt)
	p.env.Coll.DirsPerCommit(len(ck.Dirs), len(ck.WriteDirs))
	if p.env.Probe != nil {
		p.env.Probe.ChunkCommitted(p.ID, ck.Tag.Seq, now)
	}
	p.hier.Commit(ck.WriteLines)
	p.Acct.Useful += ck.ExecUseful
	p.Acct.CacheMiss += ck.ExecMiss
	p.Committed++
	if p.Committed >= p.target && !p.done {
		p.done = true
		p.FinishAt = p.env.Eng.Now()
		// Abandon any speculative work beyond the target.
		p.executing = nil
		p.traceExecEnd()
		p.finished = nil
		p.execEpoch++
		p.reading = false
		if p.cfg.OnDone != nil {
			p.cfg.OnDone(p.ID)
		}
	}
}

// CommitRefused implements dir.Core: wait and retry (§3.2.1).
func (p *Proc) CommitRefused(tag msg.CTag) {
	if p.committing == nil || p.committing.Tag != tag {
		return // stale failure (e.g. after an OCI recall); discard (§3.3)
	}
	ck := p.committing
	p.awaiting = false
	p.commitEnded(ck, p.env.Eng.Now(), false)
	ck.Retries++
	// Exponential backoff with a cap: under heavy collision bursts a fixed
	// retry interval lets 64 processors' request storms saturate the torus
	// (latencies then diverge and retries compound). Backing off spreads
	// the retries until the concurrent group set becomes feasible.
	shift := ck.Retries
	if shift > 5 {
		shift = 5
	}
	backoff := retryBackoff<<uint(shift) + event.Time(p.rng.Intn(64))
	p.after(backoff, p.retryFn, chunk.Access{}, 0, 0, ck)
	// The refusal is a decision: consume invalidations deferred during the
	// conservative window (Figure 4(c)) — this may squash ck, cancelling
	// the scheduled retry.
	p.drainDeferred()
}

// retryCommit re-requests ck's commit after a refusal's backoff, unless a
// squash cancelled the retry meanwhile.
func (p *Proc) retryCommit(ck *chunk.Chunk) {
	if p.committing == ck {
		p.commitReqAt = p.env.Eng.Now()
		p.awaiting = true
		p.requestCommit(ck)
	}
}

// ResumeInvalidations implements dir.Core: the protocol's decision arrived
// (e.g. BulkSC's arbiter grant), ending the conservative deferral window.
func (p *Proc) ResumeInvalidations() {
	p.awaiting = false
	p.drainDeferred()
}

// requeueFor restarts execution at chunk ck. The younger chunk it abandons,
// executing or finished, waits in the spare slot and re-executes after ck
// in program order (the generator is not asked for it again).
func (p *Proc) requeueFor(ck *chunk.Chunk) {
	if p.done {
		return
	}
	younger := p.executing
	if younger == nil {
		younger = p.finished
	}
	if younger != nil {
		p.nextSeq = younger.Tag.Seq
		p.spare = younger
	}
	p.executing = nil
	p.finished = nil
	p.beginExecute(ck)
}

// squashExecuting discards the executing (or finished-waiting) chunk and
// restarts it.
func (p *Proc) squashExecuting(trueConflict bool) {
	var ck *chunk.Chunk
	now := p.env.Eng.Now()
	switch {
	case p.executing != nil:
		ck = p.executing
	case p.finished != nil:
		ck = p.finished
		// The commit stall so far is charged to Commit; the re-execution
		// restarts the clock.
		p.Acct.Commit += uint64(now - p.stallStart)
	default:
		return
	}
	p.Squashes++
	p.env.Coll.Squashed(trueConflict)
	p.traceSquash(ck, trueConflict)
	p.Acct.Squash += ck.ExecUseful + ck.ExecMiss
	ck.Squashes++
	p.hier.Squash(ck.WriteLines)
	p.executing = nil
	p.finished = nil
	p.beginExecute(ck)
}

// squashInFlight squashes the committing chunk (and, by program order, any
// younger chunk) and restarts execution at the squashed chunk. It returns
// the recall info for the cancelled attempt.
func (p *Proc) squashInFlight(trueConflict bool) *msg.RecallInfo {
	ck := p.committing
	now := p.env.Eng.Now()
	p.Squashes++
	p.env.Coll.Squashed(trueConflict)
	p.traceSquash(ck, trueConflict)
	p.commitEnded(ck, now, false)
	p.Acct.Squash += ck.ExecUseful + ck.ExecMiss
	ck.Squashes++
	p.hier.Squash(ck.WriteLines)
	recall := &msg.RecallInfo{Tag: ck.Tag, Try: uint64(ck.Retries), GVec: append([]int(nil), ck.Dirs...)}
	// The younger chunk is squashed too (program order).
	if p.finished != nil {
		p.Acct.Commit += uint64(now - p.stallStart)
		p.Acct.Squash += p.finished.ExecUseful + p.finished.ExecMiss
	}
	if p.executing != nil {
		p.Acct.Squash += p.executing.ExecUseful + p.executing.ExecMiss
	}
	p.execEpoch++
	p.reading = false
	p.committing = nil
	p.awaiting = false
	ck.Retries++
	// Re-execute the squashed chunk immediately (§3.3: "the processor
	// squashes and restarts the chunk"); a later commit_failure for the
	// old attempt is discarded by CommitRefused.
	p.requeueFor(ck)
	return recall
}

// BulkInvalidate implements dir.Core (§3.1, §3.3): invalidate the cached
// lines of a committing chunk's write set and disambiguate against the
// local chunks. A committing chunk named by immune is past its
// serialization point and survives (its copies still die, its younger
// siblings still squash).
func (p *Proc) BulkInvalidate(w *sig.Sig, lines []sig.Line, immune *msg.CTag) *msg.CTag {
	r := p.bulkInvalidate(w, lines, immune)
	if r == nil {
		return nil
	}
	tag := r.Tag
	return &tag
}

// bulkInvalidate is the full-information variant used by the ScalableBulk
// message path, which needs the recall payload.
func (p *Proc) bulkInvalidate(w *sig.Sig, lines []sig.Line, immune *msg.CTag) *msg.RecallInfo {
	for _, l := range lines {
		p.hier.Invalidate(l)
	}
	if p.committing != nil && p.committing.ConflictsWith(w) &&
		!(immune != nil && p.committing.Tag == *immune) {
		return p.squashInFlight(p.committing.TrulyConflictsWith(lines))
	}
	active := p.executing
	if active == nil {
		active = p.finished
	}
	if active != nil && active.ConflictsWith(w) {
		p.squashExecuting(active.TrulyConflictsWith(lines))
	}
	return nil
}

// InvalidateLine implements dir.Core: the per-line (Scalable TCC) variant.
// Disambiguation is exact — no signature aliasing. A committing chunk named
// by immune is past its serialization point and survives: the invalidating
// writer serializes after it, so the conflict is not a violation of the
// immune chunk's atomicity (its cached copy still dies, above).
func (p *Proc) InvalidateLine(l sig.Line, immune *msg.CTag) *msg.CTag {
	p.hier.Invalidate(l)
	one := []sig.Line{l}
	if p.committing != nil && p.committing.TrulyConflictsWith(one) &&
		!(immune != nil && p.committing.Tag == *immune) {
		r := p.squashInFlight(true)
		tag := r.Tag
		return &tag
	}
	active := p.executing
	if active == nil {
		active = p.finished
	}
	if active != nil && active.TrulyConflictsWith(one) {
		p.squashExecuting(true)
	}
	return nil
}

// MaybeDefer buffers an invalidation while a commit decision is pending
// (conservative mode, Figure 4(c)). Deferred messages are consumed — and
// only then acknowledged — when the decision arrives. It keeps a copy: the
// network recycles m when its handler returns.
func (p *Proc) MaybeDefer(m *msg.Msg) bool {
	if !p.cfg.ConservativeInv || !p.awaiting || p.draining {
		return false
	}
	p.deferred = append(p.deferred, *m)
	return true
}

func (p *Proc) drainDeferred() {
	if len(p.deferred) == 0 || p.draining {
		return
	}
	p.draining = true
	for len(p.deferred) > 0 {
		m := &p.deferred[0]
		p.deferred = p.deferred[1:]
		p.Handle(m)
	}
	p.draining = false
}

// Handle dispatches a processor-side message.
func (p *Proc) Handle(m *msg.Msg) {
	switch m.Kind {
	case msg.CommitSuccess:
		p.CommitFinished(m.Tag)
	case msg.CommitFailure:
		// ScalableBulk failure notices carry the attempt index; stale
		// notices for already-retried attempts are discarded (§3.3 says
		// the same for failures arriving after an OCI squash).
		if p.committing != nil && p.committing.Tag == m.Tag &&
			uint64(p.committing.Retries) != m.TID {
			return
		}
		p.CommitRefused(m.Tag)
	case msg.ReadMemReply, msg.ReadShReply, msg.ReadDirtyReply:
		p.onReadReply(m)
	case msg.ReadNack:
		p.onReadNack(m)
	case msg.BulkInv:
		if p.MaybeDefer(m) {
			return
		}
		p.invTag, p.invTagOK = m.Tag, true
		recall := p.bulkInvalidate(m.W(), m.WriteLines, nil)
		p.invTagOK = false
		ack := msg.Msg{Kind: msg.BulkInvAck, Src: p.ID, Dst: m.Src, Tag: m.Tag}
		if recall != nil && p.cfg.OCIRecall {
			ack.Recall = recall
		}
		p.env.Net.Send(ack)
	default:
		p.proto.HandleProc(p.ID, m)
	}
}

func (p *Proc) String() string {
	return fmt.Sprintf("P%d committed=%d acct=%+v", p.ID, p.Committed, p.Acct)
}

// DebugState renders the pipeline slots for deadlock diagnostics.
func (p *Proc) DebugState() string {
	f := func(c *chunk.Chunk) string {
		if c == nil {
			return "-"
		}
		return fmt.Sprintf("%s(try %d, sq %d)", c.Tag, c.Retries, c.Squashes)
	}
	return fmt.Sprintf("P%d done=%v committed=%d/%d committing=%s executing=%s finished=%s awaiting=%v deferred=%d pendingRead=%v",
		p.ID, p.done, p.Committed, p.target, f(p.committing), f(p.executing), f(p.finished),
		p.awaiting, len(p.deferred), p.reading)
}
