package core

import (
	"fmt"
	"math/rand"
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
)

// fakeProc is a minimal committing processor: it submits chunks, retries on
// commit_failure, consumes bulk invalidations (OCI), and squashes with a
// commit_recall when an invalidation hits its in-flight chunk.
type fakeProc struct {
	id   int
	env  *dir.Env
	p    *Protocol
	chk  *chunk.Chunk
	done map[uint64]bool

	squashedInFlight bool
	squashes         int
	lateSuccesses    int // commit_success for an already-squashed chunk
	failures         int

	backoff     event.Time
	reexecDelay event.Time
}

func (f *fakeProc) submit(ck *chunk.Chunk) {
	f.chk = ck
	f.p.RequestCommit(f.id, ck)
}

func (f *fakeProc) handle(m *msg.Msg) {
	switch m.Kind {
	case msg.CommitSuccess:
		if f.chk == nil || m.Tag != f.chk.Tag {
			return
		}
		if f.squashedInFlight {
			// The squash was provably due to signature aliasing (a true
			// conflict shares a home module and would have failed the
			// group), so the commit stands and re-execution is abandoned.
			f.lateSuccesses++
		}
		f.env.Coll.CommitEnded(f.id, m.Tag.Seq, f.chk.Retries, f.env.Eng.Now(), true)
		f.done[m.Tag.Seq] = true
		f.chk = nil
		f.squashedInFlight = false
	case msg.CommitFailure:
		if f.chk == nil || m.Tag != f.chk.Tag || uint64(f.chk.Retries) != m.TID {
			return // stale failure of an older attempt
		}
		f.failures++
		f.env.Coll.CommitEnded(f.id, m.Tag.Seq, f.chk.Retries, f.env.Eng.Now(), false)
		f.chk.Retries++
		delay := f.backoff
		if f.squashedInFlight {
			f.squashedInFlight = false
			delay = f.reexecDelay // squashed: re-execute before retrying
		}
		ck := f.chk
		f.env.Eng.After(delay, func() {
			if f.chk == ck {
				f.p.RequestCommit(f.id, ck)
			}
		})
	case msg.BulkInv:
		var recall *msg.RecallInfo
		if f.chk != nil && !f.squashedInFlight && f.chk.ConflictsWith(m.W()) {
			f.squashedInFlight = true
			f.squashes++
			recall = &msg.RecallInfo{Tag: f.chk.Tag, Try: uint64(f.chk.Retries), GVec: f.chk.Dirs}
		}
		f.env.Net.Send(msg.Msg{Kind: msg.BulkInvAck, Src: f.id, Dst: m.Src, Tag: m.Tag, Recall: recall})
	}
}

// rig is a wired mini-machine: protocol + read path + fake processors.
type rig struct {
	eng    *event.Engine
	net    *mesh.Network
	env    *dir.Env
	proto  *Protocol
	procs  []*fakeProc
	events []trace.Event
}

// rigSink collects the rig's structured trace events for assertions.
type rigSink struct{ r *rig }

func (s rigSink) Event(e trace.Event) { s.r.events = append(s.r.events, e) }
func (s rigSink) Close() error        { return nil }

func newRig(t *testing.T, nodes int, cfg Config) *rig {
	t.Helper()
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: nodes})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(nodes), State: dir.NewState(nodes),
		Coll: stats.New(),
	}
	r := &rig{eng: eng, net: net, env: env}
	env.Trace = trace.New(eng, rigSink{r})
	env.Coll.Trace = env.Trace
	r.proto = New(env, cfg)
	rp := &dir.ReadPath{Env: env, Proto: r.proto}
	for i := 0; i < nodes; i++ {
		fp := &fakeProc{
			id: i, env: env, p: r.proto, done: map[uint64]bool{},
			backoff: 40 + event.Time(i)*13, reexecDelay: 200,
		}
		r.procs = append(r.procs, fp)
		node := i
		net.Register(node, func(m *msg.Msg) {
			if m.Kind.SideOf() == msg.SideDir {
				if !rp.HandleDir(node, m) {
					r.proto.HandleDir(node, m)
				}
			} else {
				r.procs[node].handle(m)
			}
		})
	}
	return r
}

// runUntil fires the events due by limit and leaves the clock at limit.
func runUntil(eng *event.Engine, limit event.Time) {
	eng.At(limit, func() {})
	for t, ok := eng.NextAt(); ok && t <= limit; t, ok = eng.NextAt() {
		eng.Step()
	}
}

// mkChunk builds a finalized chunk whose lines are pre-touched so that line
// l is homed at directory int(l)/1000 (pages are 128 lines, so l and l+1000
// are on different pages).
func (r *rig) mkChunk(proc int, seq uint64, reads, writes []sig.Line) *chunk.Chunk {
	ck := &chunk.Chunk{Tag: msg.CTag{Proc: proc, Seq: seq}, Instr: 2000}
	for _, l := range reads {
		r.env.Map.Home(l, int(l)/1000%r.net.Nodes())
		ck.Accesses = append(ck.Accesses, chunk.Access{Line: l})
	}
	for _, l := range writes {
		r.env.Map.Home(l, int(l)/1000%r.net.Nodes())
		ck.Accesses = append(ck.Accesses, chunk.Access{Line: l, Write: true})
	}
	ck.Finalize(func(l sig.Line) int { h, _ := r.env.Map.HomeIfMapped(l); return h })
	return ck
}

// checkNoIncompatibleConfirmed asserts the central §3.1 safety property: a
// module never simultaneously confirms two incompatible chunks.
func (r *rig) checkNoIncompatibleConfirmed(t *testing.T) {
	t.Helper()
	for _, mod := range r.proto.mods {
		for i, a := range mod.cst {
			for _, b := range mod.cst[i+1:] {
				if a.state != stPending && b.state != stPending && incompatible(a, b) {
					t.Fatalf("module %d holds incompatible chunks %s and %s", mod.id, a.tag, b.tag)
				}
			}
		}
	}
}

func TestSingleDirectoryCommit(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	ck := r.mkChunk(3, 1, []sig.Line{1000}, []sig.Line{1001})
	if len(ck.Dirs) != 1 || ck.Dirs[0] != 1 {
		t.Fatalf("gvec = %v, want [1]", ck.Dirs)
	}
	r.procs[3].submit(ck)
	r.eng.Run()
	if !r.procs[3].done[1] {
		t.Fatal("chunk did not commit")
	}
	st := r.net.Stats()
	if st.ByKind[msg.Grab] != 0 {
		t.Fatal("single-module group sent g messages")
	}
	if st.ByKind[msg.CommitSuccess] != 1 {
		t.Fatalf("commit_success count = %d", st.ByKind[msg.CommitSuccess])
	}
	// Directory state updated: writer owns the written line dirty.
	li := r.env.State.Get(1001)
	if li == nil || !li.Dirty || li.Owner != 3 {
		t.Fatal("commit did not update directory state")
	}
	if len(r.proto.mods[1].cst) != 0 {
		t.Fatal("CST entry leaked")
	}
}

func TestMultiDirectoryGroupFormation(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	// Chunk touches dirs 1, 2, 5 like Figure 3.
	ck := r.mkChunk(0, 1, []sig.Line{1000, 2000}, []sig.Line{5000})
	if len(ck.Dirs) != 3 {
		t.Fatalf("gvec = %v", ck.Dirs)
	}
	// A sharer of the written line that must be invalidated.
	r.env.State.AddSharer(5000, 7)
	r.procs[0].submit(ck)
	r.eng.Run()

	if !r.procs[0].done[1] {
		t.Fatal("chunk did not commit")
	}
	st := r.net.Stats()
	// g traverses 1→2→5→1: three grabs.
	if st.ByKind[msg.Grab] != 3 {
		t.Fatalf("g count = %d, want 3", st.ByKind[msg.Grab])
	}
	if st.ByKind[msg.GSuccess] != 2 {
		t.Fatalf("g_success count = %d, want 2", st.ByKind[msg.GSuccess])
	}
	if st.ByKind[msg.BulkInv] != 1 || st.ByKind[msg.BulkInvAck] != 1 {
		t.Fatalf("bulk inv/ack = %d/%d", st.ByKind[msg.BulkInv], st.ByKind[msg.BulkInvAck])
	}
	if st.ByKind[msg.CommitDone] != 2 {
		t.Fatalf("commit_done count = %d, want 2", st.ByKind[msg.CommitDone])
	}
	// All CSTs drained.
	for _, mod := range r.proto.mods {
		if len(mod.cst) != 0 {
			t.Fatalf("module %d CST not drained", mod.id)
		}
	}
}

func TestCompatibleChunksShareModuleConcurrently(t *testing.T) {
	// The paper's headline property (§2.3): chunks that use the same
	// directory but touch disjoint addresses commit concurrently.
	r := newRig(t, 8, DefaultConfig())
	a := r.mkChunk(0, 1, nil, []sig.Line{2000, 2001})
	b := r.mkChunk(1, 1, nil, []sig.Line{2064, 2065}) // same page region, dir 2
	if a.Dirs[0] != b.Dirs[0] {
		t.Fatalf("test setup: chunks must share a directory (%v vs %v)", a.Dirs, b.Dirs)
	}
	r.procs[0].submit(a)
	r.procs[1].submit(b)
	r.eng.Run()
	if !r.procs[0].done[1] || !r.procs[1].done[1] {
		t.Fatal("concurrent compatible commits did not both succeed")
	}
	if r.procs[0].failures+r.procs[1].failures != 0 {
		t.Fatal("compatible chunks should not fail/retry")
	}
	if r.env.Coll.CommitFailures != 0 {
		t.Fatal("collector recorded failures")
	}
}

func TestIncompatibleChunksSerialize(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	// Both write line 2000 (same dir, overlapping W): exactly one forms
	// first; the other fails and retries, or gets squashed by the bulk inv.
	a := r.mkChunk(0, 1, nil, []sig.Line{2000})
	b := r.mkChunk(1, 1, nil, []sig.Line{2000})
	// Both procs cache the line (sharers), so invalidations flow.
	r.env.State.AddSharer(2000, 0)
	r.env.State.AddSharer(2000, 1)
	r.procs[0].submit(a)
	r.procs[1].submit(b)
	r.eng.Run()
	if !r.procs[0].done[1] || !r.procs[1].done[1] {
		t.Fatalf("both chunks must eventually commit (done: %v %v)",
			r.procs[0].done[1], r.procs[1].done[1])
	}
	// Serialization must have cost at least one failure or squash.
	total := r.procs[0].failures + r.procs[1].failures + r.procs[0].squashes + r.procs[1].squashes
	if total == 0 {
		t.Fatal("incompatible chunks committed without any collision")
	}
	r.checkNoIncompatibleConfirmed(t)
	// The final owner is whichever committed last; directory is consistent.
	li := r.env.State.Get(2000)
	if li == nil || !li.Dirty {
		t.Fatal("line not dirty after commits")
	}
}

func TestFigure3gThreeCollidingGroups(t *testing.T) {
	// G0 = dirs {0,2,3,4}, G1 = {1,2,3,7,8}, G2 = {6,7}, all mutually
	// incompatible where they overlap. At least one forms; all eventually
	// commit.
	r := newRig(t, 9, DefaultConfig())
	shared23 := []sig.Line{2000, 3000} // dirs 2 and 3
	g0 := r.mkChunk(0, 1, nil, append([]sig.Line{0, 4000}, shared23...))
	g1 := r.mkChunk(1, 1, nil, append([]sig.Line{1000, 7000, 8000}, shared23...))
	g2 := r.mkChunk(2, 1, nil, []sig.Line{6000, 7000})
	if len(g0.Dirs) != 4 || len(g1.Dirs) != 5 || len(g2.Dirs) != 2 {
		t.Fatalf("gvecs: %v %v %v", g0.Dirs, g1.Dirs, g2.Dirs)
	}
	r.procs[0].submit(g0)
	r.procs[1].submit(g1)
	r.procs[2].submit(g2)
	r.eng.Run()
	for i := 0; i < 3; i++ {
		if !r.procs[i].done[1] {
			t.Fatalf("group %d never committed", i)
		}
	}
	r.checkNoIncompatibleConfirmed(t)
}

func TestReadBlockedDuringCommit(t *testing.T) {
	r := newRig(t, 8, DefaultConfig())
	ck := r.mkChunk(0, 1, nil, []sig.Line{2000})
	// Inject the signatures directly and check the §3.1 load nack window.
	r.proto.HandleDir(2, &msg.Msg{
		Kind: msg.CommitRequest, Src: 0, Dst: 2, Tag: ck.Tag,
		RSig: &ck.RSig, WSig: &ck.WSig, GVec: []int{2}, WriteLines: ck.WriteLines,
	})
	if !r.proto.ReadBlocked(2, 2000) {
		t.Fatal("load to committing W line not blocked")
	}
	if r.proto.ReadBlocked(2, 2064) {
		t.Fatal("unrelated load blocked")
	}
	r.eng.Run() // commit completes
	if r.proto.ReadBlocked(2, 2000) {
		t.Fatal("load still blocked after commit done")
	}
}

func TestOCIRecallKillsLoserGroup(t *testing.T) {
	// Figure 4(d)/5(b): P0 and P1 commit overlapping chunks. When the race
	// lands so that the winner's bulk inv reaches P1 while P1's own commit
	// is in flight, P1 squashes, piggy-backs a commit_recall, and its group
	// must never form. Sweep P1's submission delay across the race window;
	// the squash path must appear somewhere, and every timing must end with
	// both chunks committed and no CST leaks.
	sawSquash, sawLookout := false, false
	for delay := event.Time(0); delay <= 120; delay += 5 {
		r := newRig(t, 8, DefaultConfig())
		a := r.mkChunk(0, 1, nil, []sig.Line{2000, 3000})
		b := r.mkChunk(1, 1, []sig.Line{2000}, []sig.Line{3064})
		r.env.State.AddSharer(2000, 1) // P1 caches the line P0 writes
		r.procs[0].submit(a)
		d := delay
		r.eng.After(1+d, func() { r.procs[1].submit(b) })
		r.eng.Run()

		if !r.procs[0].done[1] || !r.procs[1].done[1] {
			t.Fatalf("delay %d: chunks not both committed (%v %v)",
				d, r.procs[0].done[1], r.procs[1].done[1])
		}
		if r.procs[1].squashes > 0 {
			sawSquash = true
		}
		for _, e := range r.events {
			if e.Kind == trace.KRecall {
				sawLookout = true
			}
		}
		r.checkNoIncompatibleConfirmed(t)
		for _, mod := range r.proto.mods {
			if len(mod.cst) != 0 {
				t.Fatalf("delay %d: module %d CST leaked after recall", d, mod.id)
			}
			if len(mod.lookouts()) != 0 {
				t.Fatalf("delay %d: module %d recall lookout leaked", d, mod.id)
			}
		}
	}
	if !sawSquash {
		t.Fatal("no timing produced an OCI squash + recall")
	}
	if !sawLookout {
		t.Fatal("no timing exercised the recall lookout path (§3.4)")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestStarvationReservation(t *testing.T) {
	// A module that sees MAX failures of one chunk reserves itself.
	cfg := DefaultConfig()
	cfg.MaxSquashes = 2
	r := newRig(t, 8, cfg)
	mod := r.proto.mods[2]
	tag := msg.CTag{Proc: 5, Seq: 9}
	r.proto.noteFailure(mod, tag, 0, true)
	if mod.reserved != nil {
		t.Fatal("reserved too early")
	}
	r.proto.noteFailure(mod, tag, 1, true)
	if mod.reserved == nil || *mod.reserved != tag {
		t.Fatal("module did not reserve for the starving chunk")
	}
	// While reserved, a younger chunk's commit at this module fails even
	// if compatible (older chunks pass: the age rule that keeps
	// cross-reservations deadlock-free).
	other := r.mkChunk(0, 30, nil, []sig.Line{2000})
	r.procs[0].submit(other)
	deadline := r.eng.Now() + 500
	runUntil(r.eng, deadline)
	if r.procs[0].failures == 0 {
		t.Fatal("reserved module accepted a younger chunk")
	}
	// The starving chunk commits and clears the reservation.
	starving := r.mkChunk(5, 9, nil, []sig.Line{2064})
	r.procs[5].submit(starving)
	r.eng.Run()
	if !r.procs[5].done[9] {
		t.Fatal("starving chunk did not commit")
	}
	if mod.reserved != nil {
		t.Fatal("reservation not cleared after starving chunk committed")
	}
	if !r.procs[0].done[30] {
		t.Fatal("other chunk never committed after reservation cleared")
	}
}

func TestEmptyFootprintChunkCommits(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	ck := &chunk.Chunk{Tag: msg.CTag{Proc: 2, Seq: 1}, Instr: 2000}
	ck.Finalize(func(l sig.Line) int { return 0 })
	r.procs[2].submit(ck)
	r.eng.Run()
	if !r.procs[2].done[1] {
		t.Fatal("empty chunk did not commit")
	}
}

func TestPriorityRotationChangesLeader(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RotationInterval = 1000
	r := newRig(t, 8, cfg)
	// At epoch 0 the leader of {1,2,5} is 1.
	if got := r.proto.orderGVec([]int{5, 1, 2}); got[0] != 1 {
		t.Fatalf("epoch-0 leader = %d, want 1", got[0])
	}
	// Advance to epoch 2: priorities rotate so 2 is highest of {1,2,5}.
	runUntil(r.eng, 2000)
	if got := r.proto.orderGVec([]int{5, 1, 2}); got[0] != 2 {
		t.Fatalf("epoch-2 leader = %d, want 2", got[0])
	}
	// Commits still work under rotation.
	ck := r.mkChunk(0, 1, []sig.Line{1000}, []sig.Line{5000})
	r.procs[0].submit(ck)
	r.eng.Run()
	if !r.procs[0].done[1] {
		t.Fatal("commit failed under rotation")
	}
}

// TestPropertyRandomContention is the protocol's main liveness/safety
// property test: many processors repeatedly commit chunks with randomly
// overlapping footprints; every chunk eventually commits, the simulation
// quiesces, and no module ever confirms incompatible chunks.
func TestPropertyRandomContention(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(t, 8, DefaultConfig())
			const perProc = 5
			// Submission chains: each proc commits chunk k+1 once chunk k is done.
			var submit func(p int, seq uint64)
			submit = func(p int, seq uint64) {
				if seq > perProc {
					return
				}
				var reads, writes []sig.Line
				for n := rng.Intn(4); n >= 0; n-- {
					reads = append(reads, sig.Line(rng.Intn(6)*1000+rng.Intn(8)))
				}
				for n := rng.Intn(3); n >= 0; n-- {
					writes = append(writes, sig.Line(rng.Intn(6)*1000+rng.Intn(8)))
				}
				ck := r.mkChunk(p, seq, reads, writes)
				r.procs[p].submit(ck)
				// Poll for completion, then chain the next chunk.
				var poll func()
				poll = func() {
					if r.procs[p].done[seq] {
						submit(p, seq+1)
						return
					}
					r.eng.After(50, poll)
				}
				r.eng.After(50, poll)
			}
			for p := 0; p < 8; p++ {
				submit(p, 1)
			}
			// Safety scan while running.
			var scan func()
			scan = func() {
				r.checkNoIncompatibleConfirmed(t)
				if r.eng.Pending() > 0 {
					r.eng.After(100, scan)
				}
			}
			r.eng.After(100, scan)
			r.eng.Run()
			for p := 0; p < 8; p++ {
				for seq := uint64(1); seq <= perProc; seq++ {
					if !r.procs[p].done[seq] {
						t.Fatalf("proc %d chunk %d never committed", p, seq)
					}
				}
			}
		})
	}
}

// TestChunkHistKeepsSeqOrder: a module's chunk records behave as a map from
// tag to record — one record per tag, found again whatever order the tags
// arrive in — while staying sorted by sequence number per processor.
func TestChunkHistKeepsSeqOrder(t *testing.T) {
	mod := &module{}
	for i, seq := range []uint64{5, 2, 9, 2, 7, 0} {
		h := mod.histFor(msg.CTag{Proc: 3, Seq: seq})
		h.squashes += i + 1
	}
	mod.histFor(msg.CTag{Proc: 1, Seq: 5}).squashes = 100
	want := map[uint64]int{0: 6, 2: 2 + 4, 5: 1, 7: 5, 9: 3}
	hs := mod.hist[3]
	if len(hs) != len(want) {
		t.Fatalf("processor 3 has %d records, want %d", len(hs), len(want))
	}
	for i, h := range hs {
		if i > 0 && hs[i-1].seq >= h.seq {
			t.Fatalf("records out of order: %v", hs)
		}
		if h.squashes != want[h.seq] {
			t.Errorf("seq %d: squashes %d, want %d", h.seq, h.squashes, want[h.seq])
		}
		if got := mod.histOf(msg.CTag{Proc: 3, Seq: h.seq}); got != &hs[i] {
			t.Errorf("histOf(seq %d) did not find its record", h.seq)
		}
	}
	if mod.histOf(msg.CTag{Proc: 3, Seq: 4}) != nil || mod.histOf(msg.CTag{Proc: 8, Seq: 5}) != nil {
		t.Error("histOf found a record that was never created")
	}
	if h := mod.histOf(msg.CTag{Proc: 1, Seq: 5}); h == nil || h.squashes != 100 {
		t.Error("processors' records are not kept apart")
	}
}
