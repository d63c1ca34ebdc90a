// One schedule execution: build a machine, capture every commit-protocol
// delivery, and alternate between letting the engine compute and delivering
// a chosen pending message, checking invariants after every event.
package explore

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"

	"scalablebulk/internal/check"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/system"
	"scalablebulk/internal/trace"
	"scalablebulk/internal/workload"
)

// controller implements mesh.Scheduler: it captures every delivery off the
// read path (the commit-protocol messages) and leaves read-path traffic on
// the engine's normal timing. Holding only protocol messages is the model's
// abstraction boundary: read requests and replies are load-path plumbing
// whose ordering the commit protocols may not depend on, and holding them
// would square the state space for no added coverage.
type controller struct {
	pending []mesh.Delivery
	seq     []uint64 // arrival order tiebreak, parallel to pending
	skips   []int    // times each entry was enabled but passed over
	nextSeq uint64
}

func (c *controller) Hold(d mesh.Delivery) bool {
	if d.M.Kind.ReadPath() {
		return false
	}
	c.pending = append(c.pending, d)
	c.seq = append(c.seq, c.nextSeq)
	c.skips = append(c.skips, 0)
	c.nextSeq++
	return true
}

// enabled returns the indices of deliveries that may go next, in arrival
// order. Unless unordered, only the oldest pending delivery of each
// (src, dst) pair is enabled — the torus's per-pair FIFO guarantee. The
// fairness bound then kicks in: if any enabled delivery has been passed
// over maxSkips times, the oldest such delivery is the only choice, so no
// schedule can starve a message forever (maxSkips < 0 disables the bound).
func (c *controller) enabled(unordered bool, maxSkips int) []int {
	out := make([]int, 0, len(c.pending))
	for i := range c.pending {
		if !unordered {
			shadowed := false
			for j := 0; j < i; j++ {
				if c.pending[j].M.Src == c.pending[i].M.Src &&
					c.pending[j].M.Dst == c.pending[i].M.Dst {
					shadowed = true
					break
				}
			}
			if shadowed {
				continue
			}
		}
		out = append(out, i)
	}
	if maxSkips >= 0 {
		for _, i := range out {
			if c.skips[i] >= maxSkips {
				return []int{i} // forced: deliver the starved message now
			}
		}
	}
	return out
}

// release delivers pending[enabled[chosen]] now and charges a skip to every
// other enabled delivery (the fairness clock).
func (c *controller) release(net *mesh.Network, enabled []int, chosen int) {
	for _, i := range enabled {
		if i != enabled[chosen] {
			c.skips[i]++
		}
	}
	i := enabled[chosen]
	m := c.pending[i].M
	c.pending = append(c.pending[:i], c.pending[i+1:]...)
	c.seq = append(c.seq[:i], c.seq[i+1:]...)
	c.skips = append(c.skips[:i], c.skips[i+1:]...)
	net.Release(m)
}

// point records one choice point for the DFS driver: the state digest (for
// visited-set pruning) and the branch indices worth exploring from it.
type point struct {
	digest   uint64
	branches []int
}

// outcome is everything one executed schedule produced.
type outcome struct {
	choices   []int
	points    []point
	violation *Violation
	writes    map[check.WriteKey]int // the checker's, on a completed run
	// digest folds the final machine state and the committed-write multiset:
	// two runs with equal digests ended in the same time-free state with the
	// same committed writes — the bit-identity anchor for schedule replay.
	digest uint64
	dump   string
	flight []string
}

// execute runs one schedule: prescribed choice indices in prefix, default
// (oldest pending) afterwards. With expand set it also computes the branch
// sets the DFS driver explores; replay/minimization trials leave it off.
func (e *explorer) execute(prefix []int, expand bool) (out *outcome, err error) {
	spec := e.opts.Spec
	out = &outcome{}

	cfg := system.DefaultConfig(spec.Cores, spec.Proto)
	cfg.ChunksPerCore = spec.Chunks
	cfg.WarmupChunks = spec.Warmup
	cfg.Seed = spec.Seed
	cfg.MaxCycles = spec.MaxCycles
	cfg.Check = true
	ring := trace.NewRing(96)
	cfg.TraceSink = trace.NewFilter(ring)

	prof, source, err := workload.ResolveApp(spec.App)
	cfg.Workload = source
	if err != nil {
		return nil, err
	}
	m, err := system.Build(prof, cfg)
	if err != nil {
		return nil, err
	}
	// A protocol panic under a legal interleaving is a finding, not a
	// checker crash: convert it to a violation so it gets minimized and
	// recorded like any other.
	defer func() {
		if r := recover(); r != nil {
			out.violation = &Violation{
				Kind: KindInvariant, Step: len(out.choices),
				Msg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack()),
			}
			if m != nil {
				out.dump = m.Dump()
				out.flight = ring.Dump()
			}
			err = nil
		}
	}()

	ctrl := &controller{}
	m.Net.Sched = ctrl
	m.Start()

	fail := func(kind, format string, args ...any) {
		out.violation = &Violation{Kind: kind, Step: len(out.choices), Msg: fmt.Sprintf(format, args...)}
		out.dump = m.Dump()
		out.flight = ring.Dump()
	}

	// pathSeen detects state recurrence in the run's default-continuation
	// region: past the prescribed prefix every choice is "oldest pending",
	// so revisiting a time-free state digest means the machine is in a cycle
	// it will repeat forever — a livelock, reported without burning the
	// whole depth budget.
	pathSeen := map[uint64]int{}

	for {
		if m.Check.Count() > 0 {
			fail(KindInvariant, "invariant broke during execution")
			if vs := m.Check.Violations(); len(vs) > 0 {
				out.violation.Invariants = vs
				out.violation.Msg = vs[0].String()
			}
			break
		}
		if m.Eng.Now() > spec.MaxCycles {
			fail(KindLivelock, "exceeded cycle budget MaxCycles=%d with work left", spec.MaxCycles)
			break
		}
		t, ok := m.Eng.NextAt()
		if ok && (len(ctrl.pending) == 0 ||
			t <= min(m.Eng.Now()+spec.Horizon, ctrl.pending[0].At+protocol.DefaultCommitDeadline)) {
			// Near-future machine work (cache fills, link hops, retry
			// backoff): not a scheduling decision, let it run — but not
			// past a commit deadline after the oldest pending message's
			// arrival, the engines' own bound on a stall: near work that
			// only a held message can end (a load nacked until a held
			// release lands) would otherwise starve it for good.
			m.Eng.Step()
			continue
		}
		if len(ctrl.pending) > 0 {
			// Choice point: besides the deliverable messages, only
			// far-future events (commit watchdogs) or overdue near work.
			step := len(out.choices)
			if step >= e.opts.MaxDepth {
				fail(KindLivelock, "no quiescence within %d scheduling steps", e.opts.MaxDepth)
				break
			}
			enabled := ctrl.enabled(spec.Unordered, spec.MaxSkips)
			dig := e.digest(m, ctrl)
			if step >= len(prefix) {
				if prev, seen := pathSeen[dig]; seen {
					fail(KindLivelock, "state at step %d recurred at step %d: the default schedule cycles", prev, step)
					break
				}
				pathSeen[dig] = step
			}
			idx := 0
			if step < len(prefix) {
				// Out-of-range indices (from minimization trials against a
				// shifted pending set) wrap deterministically.
				idx = prefix[step] % len(enabled)
				if idx < 0 {
					idx = 0
				}
			}
			if expand {
				out.points = append(out.points, point{digest: dig, branches: e.branches(ctrl, enabled, idx)})
			}
			out.choices = append(out.choices, idx)
			ctrl.release(m.Net, enabled, idx)
			continue
		}
		if ok {
			// Nothing deliverable and only far-future events: jump time
			// (this is how an armed commit watchdog gets to fire).
			m.Eng.Step()
			continue
		}
		// Engine empty, nothing pending.
		break
	}

	if len(out.choices) > e.deepest {
		e.deepest = len(out.choices)
	}
	if out.violation != nil {
		return out, nil
	}
	if !m.AllDone() {
		fail(KindDeadlock, "no events and no pending messages with work left")
		return out, nil
	}
	// Completed: end-of-run invariant checks (I1 leaks, I4 liveness).
	if _, ferr := m.Finish(); ferr != nil {
		fail(KindInvariant, "%v", ferr)
		out.violation.Invariants = m.Check.Violations()
		if len(out.violation.Invariants) > 0 {
			out.violation.Msg = out.violation.Invariants[0].String()
		}
		return out, nil
	}
	// Quiescence: the engine must hold no live protocol state after every
	// chunk committed — leaked CST entries, ghost occupancies or stranded
	// queue entries count even when no end-to-end invariant noticed them.
	if n := m.Proto.PendingAttempts(); n != 0 {
		fail(KindQuiescence, "%d protocol attempt(s)/entries live after completion", n)
		return out, nil
	}
	out.writes = m.Check.Writes()
	out.digest = e.finalDigest(m, out)
	// A completed machine dumps empty (nothing is stuck), but keep the
	// flight recorder's tail: if the run later turns out to diverge from the
	// reference multiset (checked post-run, when m is gone), the message
	// history is the diagnostic.
	out.flight = ring.Dump()
	return out, nil
}

// digest hashes the machine's time-free state: per-processor pipeline state,
// per-module protocol state, the live-attempt gauge, and the pending
// deliveries in arrival order. Two states with equal digests behave
// identically under the same future choices (the processor and module debug
// renderings deliberately contain no timestamps; BulkSC's arbiter renders
// its pipeline-drain time, which only makes its digests conservatively
// unequal — less pruning, never wrong pruning).
func (e *explorer) digest(m *system.Machine, ctrl *controller) uint64 {
	h := fnv.New64a()
	for _, p := range m.Procs {
		fmt.Fprintln(h, p.DebugState())
	}
	for i := range m.Procs {
		fmt.Fprintln(h, m.Proto.DebugModule(i))
	}
	fmt.Fprintln(h, m.Proto.PendingAttempts())
	for i := range ctrl.pending {
		describeMsg(h, ctrl.pending[i].M)
		fmt.Fprintln(h, ctrl.skips[i])
	}
	return h.Sum64()
}

// finalDigest anchors replay bit-identity: final machine state plus the
// committed-write multiset (order-independent fold).
func (e *explorer) finalDigest(m *system.Machine, out *outcome) uint64 {
	h := fnv.New64a()
	for _, p := range m.Procs {
		fmt.Fprintln(h, p.DebugState())
	}
	var fold uint64
	for k, n := range out.writes {
		kh := fnv.New64a()
		fmt.Fprintf(kh, "%d/%d/%d", uint64(k.Line), k.Writer, n)
		fold += kh.Sum64()
	}
	fmt.Fprintf(h, "writes=%d fold=%d choices=%d", len(out.writes), fold, len(out.choices))
	return h.Sum64()
}

// describeMsg writes a message's schedule-relevant identity (kind, route,
// chunk attempt, and full footprint) into the digest.
func describeMsg(h interface{ Write([]byte) (int, error) }, m *msg.Msg) {
	fmt.Fprintf(h, "%s %d>%d %v t%d L%d wl%v rl%v g%v a%v\n",
		m.Kind, m.Src, m.Dst, m.Tag, m.TID, uint64(m.Line),
		m.WriteLines, m.ReadLines, m.GVec, m.Abandon)
}

// branches computes the branch set at a choice point: which enabled
// deliveries are worth exploring as alternatives to each other.
//
// Without reduction it is every enabled index. With reduction it is the
// persistent-set closure seeded by the default choice: start from the taken
// delivery and add every enabled delivery that does not commute with a
// member, to a fixpoint. Two deliveries commute when they target different
// nodes AND touch disjoint footprints (tag, explicit lines, signatures) —
// delivering them in either order reaches the same state, so one order
// suffices. The closure is computed over currently-enabled deliveries only;
// a not-yet-sent message that would conflict is invisible to it, which is
// the standard static-approximation caveat — the -noreduce mode exists to
// cross-check exactly this (DESIGN.md §13).
func (e *explorer) branches(ctrl *controller, enabled []int, taken int) []int {
	if e.opts.NoReduce {
		out := make([]int, len(enabled))
		for i := range enabled {
			out[i] = i
		}
		return out
	}
	in := make([]bool, len(enabled))
	in[taken] = true
	for changed := true; changed; {
		changed = false
		for i := range enabled {
			if in[i] {
				continue
			}
			for j := range enabled {
				if in[j] && conflicts(ctrl.pending[enabled[i]].M, ctrl.pending[enabled[j]].M) {
					in[i] = true
					changed = true
					break
				}
			}
		}
	}
	var out []int
	for i, ok := range in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// conflicts reports whether two pending deliveries may not commute: same
// destination node (same handler state), same chunk attempt (same job /
// CST entry, wherever it lives), or overlapping address footprints.
func conflicts(a, b *msg.Msg) bool {
	if a.Dst == b.Dst {
		return true
	}
	if a.Tag == b.Tag {
		return true
	}
	if linesOverlap(a, b) {
		return true
	}
	if a.W().Overlaps(b.W()) || a.W().Overlaps(b.R()) ||
		a.R().Overlaps(b.W()) {
		return true
	}
	return false
}

// linesOverlap intersects the explicit line footprints of two messages.
func linesOverlap(a, b *msg.Msg) bool {
	la := lineSet(a)
	if len(la) == 0 {
		return false
	}
	for _, l := range lineSet(b) {
		for _, k := range la {
			if l == k {
				return true
			}
		}
	}
	return false
}

func lineSet(m *msg.Msg) []sig.Line {
	out := make([]sig.Line, 0, 1+len(m.WriteLines)+len(m.ReadLines))
	if m.Line != 0 {
		out = append(out, m.Line)
	}
	out = append(out, m.WriteLines...)
	out = append(out, m.ReadLines...)
	return out
}
