package proc

import (
	"reflect"
	"testing"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
)

// scriptProto is a controllable protocol: it records commit requests and
// lets the test resolve them explicitly.
type scriptProto struct {
	env      *dir.Env
	requests []*chunk.Chunk
}

func (f *scriptProto) Name() string                    { return "script" }
func (f *scriptProto) HandleDir(node int, m *msg.Msg)  {}
func (f *scriptProto) HandleProc(node int, m *msg.Msg) {}
func (f *scriptProto) ReadBlocked(int, sig.Line) bool  { return false }
func (f *scriptProto) RequestCommit(p int, c *chunk.Chunk) {
	f.env.Coll.CommitStarted(p, c.Tag.Seq, c.Retries, f.env.Eng.Now())
	f.requests = append(f.requests, c)
}

// fixedGen deals fixed-size private chunks (always cache-resident after the
// first fill, so timing is easy to reason about).
type fixedGen struct{ accesses int }

func (g fixedGen) NextChunk(proc int, seq uint64) *chunk.Chunk {
	ck := &chunk.Chunk{Tag: msg.CTag{Proc: proc, Seq: seq}, Instr: 2000}
	for i := 0; i < g.accesses; i++ {
		ck.Accesses = append(ck.Accesses, chunk.Access{
			Line:  sig.Line(1000*(proc+1) + 100*int(seq) + i),
			Write: i%3 == 0,
		})
	}
	return ck
}

func rig(t *testing.T, cfg Config) (*Proc, *scriptProto, *event.Engine) {
	t.Helper()
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: 4})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(4), State: dir.NewState(4),
		Coll: stats.New(),
	}
	fp := &scriptProto{env: env}
	p := New(env, fp, fixedGen{accesses: 8}, 0, 4,
		cache.Config{SizeBytes: 4 << 10, Assoc: 4},
		cache.Config{SizeBytes: 32 << 10, Assoc: 8}, cfg)
	env.Cores = []dir.Core{p, nil, nil, nil}
	for i := 0; i < 4; i++ {
		node := i
		net.Register(node, func(m *msg.Msg) {
			if node == 0 && m.Kind.SideOf() == msg.SideProc {
				p.Handle(m)
				return
			}
			if m.Kind == msg.ReadReq {
				// Minimal read service: immediate memory reply.
				net.Send(msg.Msg{Kind: msg.ReadMemReply, Src: node, Dst: m.Src, Tag: m.Tag, Line: m.Line})
			}
		})
	}
	return p, fp, eng
}

// settle runs the engine dry and lets the clock idle on to at least d
// cycles from now, as it does while the processor waits on a decision.
func settle(eng *event.Engine, d event.Time) {
	eng.After(d, func() {})
	eng.Run()
}

func TestPipelineKeepsTwoChunksInFlight(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	if len(fp.requests) != 1 {
		t.Fatalf("requests = %d, want exactly 1 (commit slot busy)", len(fp.requests))
	}
	// The next chunk finished executing but must stall behind the
	// unresolved commit — that's the Commit category.
	if p.finished == nil {
		t.Fatal("second chunk should be finished-waiting")
	}
	if p.executing != nil {
		t.Fatal("a third chunk must not start with two in flight")
	}
	// Resolve the commit: the stalled chunk submits, a new one executes.
	p.CommitFinished(fp.requests[0].Tag)
	settle(eng, 100)
	if len(fp.requests) != 2 {
		t.Fatalf("requests after resolve = %d, want 2", len(fp.requests))
	}
	if p.Acct.Commit == 0 {
		t.Fatal("commit stall cycles not accounted")
	}
	if p.Committed != 1 {
		t.Fatalf("Committed = %d", p.Committed)
	}
}

func TestRetryBacksOffExponentially(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	first := fp.requests[0]
	t0 := eng.Now()
	p.CommitRefused(first.Tag)
	settle(eng, 10_000)
	if len(fp.requests) < 2 {
		t.Fatal("no retry after refusal")
	}
	if fp.requests[1] != first {
		t.Fatal("retry must resubmit the same chunk")
	}
	if first.Retries != 1 {
		t.Fatalf("Retries = %d", first.Retries)
	}
	_ = t0
	// Refuse repeatedly: the gap between retries must grow.
	var gaps []event.Time
	last := eng.Now()
	for i := 0; i < 4; i++ {
		p.CommitRefused(first.Tag)
		before := len(fp.requests)
		for len(fp.requests) == before {
			if !eng.Step() {
				t.Fatal("engine drained without retry")
			}
		}
		gaps = append(gaps, eng.Now()-last)
		last = eng.Now()
	}
	if gaps[len(gaps)-1] <= gaps[0] {
		t.Fatalf("backoff not growing: %v", gaps)
	}
}

func TestBulkInvalidateSquashesInFlightCommit(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	ck := fp.requests[0]
	var w sig.Sig
	w.Insert(ck.WriteLines[0]) // true conflict with the committing chunk

	recall := p.bulkInvalidate(&w, []sig.Line{ck.WriteLines[0]}, nil)
	if recall == nil {
		t.Fatal("in-flight conflict did not produce a recall")
	}
	if recall.Tag != ck.Tag {
		t.Fatalf("recall for %s, want %s", recall.Tag, ck.Tag)
	}
	if p.committing != nil {
		t.Fatal("squashed chunk still committing")
	}
	if p.Acct.Squash == 0 {
		t.Fatal("squash cycles not charged")
	}
	// The chunk re-executes and recommits with a higher try.
	settle(eng, 100_000)
	found := false
	for _, r := range fp.requests[1:] {
		if r.Tag == ck.Tag && r.Retries > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("squashed chunk never recommitted")
	}
}

func TestBulkInvalidateSquashesExecutingChunk(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	// The finished-waiting chunk is the younger active chunk here.
	victim := p.finished
	if victim == nil {
		t.Fatal("setup: no finished chunk")
	}
	var w sig.Sig
	w.Insert(victim.Accesses[0].Line)
	squashesBefore := p.Squashes
	p.bulkInvalidate(&w, []sig.Line{victim.Accesses[0].Line}, nil)
	if p.Squashes != squashesBefore+1 {
		t.Fatal("executing/finished chunk not squashed")
	}
	if p.committing == nil || p.committing != fp.requests[0] {
		t.Fatal("older committing chunk must survive a younger-only conflict")
	}
}

func TestInvalidateLineExactness(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	ck := fp.requests[0]
	// A line NOT in the chunk: no squash (per-line disambiguation is exact).
	if got := p.InvalidateLine(999999, nil); got != nil {
		t.Fatal("phantom per-line conflict")
	}
	// The chunk is immune (past its serialization point): cached copy dies,
	// but no squash.
	tag := ck.Tag
	if got := p.InvalidateLine(ck.WriteLines[0], &tag); got != nil {
		t.Fatal("immune committing chunk was squashed")
	}
	if got := p.InvalidateLine(ck.WriteLines[0], nil); got == nil {
		t.Fatal("true per-line conflict missed")
	}
}

func TestConservativeDeferral(t *testing.T) {
	cfg := Config{OCIRecall: true}
	cfg.ConservativeInv = true
	cfg.OCIRecall = false
	p, fp, eng := rig(t, cfg)
	p.Start()
	settle(eng, 50_000)
	ck := fp.requests[0]

	var w sig.Sig
	w.Insert(ck.WriteLines[0])
	m := &msg.Msg{Kind: msg.BulkInv, Src: 1, Dst: 0, Tag: msg.CTag{Proc: 1, Seq: 9},
		WSig: &w, WriteLines: []sig.Line{ck.WriteLines[0]}}
	p.Handle(m)
	if len(p.deferred) != 1 {
		t.Fatal("invalidation not deferred while awaiting decision")
	}
	if p.Squashes != 0 {
		t.Fatal("deferred invalidation must not squash yet")
	}
	// The decision arrives (failure): the deferred inv is consumed and the
	// conflicting in-flight chunk squashes.
	p.CommitRefused(ck.Tag)
	if len(p.deferred) != 0 {
		t.Fatal("deferred invalidations not drained at decision")
	}
	if p.Squashes == 0 {
		t.Fatal("drained conflicting invalidation did not squash")
	}
}

func TestLateSuccessAbandonsReexecution(t *testing.T) {
	p, fp, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	settle(eng, 50_000)
	ck := fp.requests[0]
	var w sig.Sig
	w.Insert(ck.WriteLines[0])
	p.bulkInvalidate(&w, []sig.Line{ck.WriteLines[0]}, nil) // squash in flight; re-executing now
	if p.executing == nil || p.executing.Tag != ck.Tag {
		t.Fatal("squashed chunk should be re-executing")
	}
	committed := p.Committed
	// The commit success arrives anyway (aliasing race): accept the commit
	// and abandon the re-execution.
	p.CommitFinished(ck.Tag)
	if p.Committed != committed+1 {
		t.Fatal("late success not counted as commit")
	}
	if p.executing != nil && p.executing.Tag == ck.Tag {
		t.Fatal("re-execution not abandoned")
	}
}

func TestDoneStopsAtTarget(t *testing.T) {
	p, _, eng := rig(t, Config{OCIRecall: true})
	p.Start()
	for i := 0; i < 10 && !p.Done(); i++ {
		settle(eng, 50_000)
		if p.committing != nil {
			p.CommitFinished(p.committing.Tag)
		}
	}
	if !p.Done() {
		t.Fatal("proc never reached its target")
	}
	if p.Committed != 4 {
		t.Fatalf("Committed = %d, want target 4", p.Committed)
	}
	// Invalidations after done are still acknowledged harmlessly.
	var w sig.Sig
	w.Insert(1)
	if r := p.bulkInvalidate(&w, []sig.Line{1}, nil); r != nil {
		t.Fatal("done proc produced a recall")
	}
}

// countingGen counts the generator's calls per seq.
type countingGen struct {
	fixedGen
	calls map[uint64]int
}

func (g *countingGen) NextChunk(proc int, seq uint64) *chunk.Chunk {
	g.calls[seq]++
	return g.fixedGen.NextChunk(proc, seq)
}

// abandonYounger runs a proc until chunk 1 waits finished behind chunk 0's
// commit, marks every field of chunk 1 an execution can touch, then squashes
// chunk 0 in flight, which abandons chunk 1. It returns chunk 1.
func abandonYounger(t *testing.T) (*Proc, *countingGen, *event.Engine, *chunk.Chunk) {
	t.Helper()
	p, fp, eng := rig(t, Config{OCIRecall: true})
	g := &countingGen{fixedGen: fixedGen{accesses: 8}, calls: map[uint64]int{}}
	p.gen = g
	p.Start()
	settle(eng, 50_000)
	younger := p.finished
	if younger == nil || younger.Tag.Seq != 1 {
		t.Fatal("setup: chunk 1 is not finished-waiting")
	}
	younger.Retries, younger.Squashes = 2, 1
	younger.Snapshot()
	ck := fp.requests[0]
	var w sig.Sig
	w.Insert(ck.WriteLines[0])
	if p.bulkInvalidate(&w, []sig.Line{ck.WriteLines[0]}, nil) == nil {
		t.Fatal("setup: chunk 0 was not squashed in flight")
	}
	if p.executing != ck || p.finished != nil {
		t.Fatal("setup: chunk 0 is not re-executing alone")
	}
	return p, g, eng, younger
}

// TestAbandonedChunkReexecutesWithoutRegeneration: the chunk an in-flight
// squash abandons re-executes after the squashed one without a second
// generator call for its seq, and it re-executes exactly what the generator
// returned for that seq.
func TestAbandonedChunkReexecutesWithoutRegeneration(t *testing.T) {
	p, g, eng, younger := abandonYounger(t)
	settle(eng, 50_000) // chunk 0 finishes and commits again; chunk 1 restarts
	if p.committing == nil || p.committing.Tag.Seq != 0 {
		t.Fatal("chunk 0 did not resubmit")
	}
	if p.finished != younger && p.executing != younger {
		t.Fatal("chunk 1 did not restart from the abandoned chunk")
	}
	for seq, n := range g.calls {
		if n != 1 {
			t.Errorf("generator called %d times for seq %d, want once", n, seq)
		}
	}

	p, g, _, younger = abandonYounger(t)
	ck := p.nextChunk()
	if ck != younger || p.nextSeq != 2 || g.calls[1] != 1 {
		t.Fatalf("nextChunk: abandoned chunk reused %v, nextSeq %d, generator calls for seq 1: %d",
			ck == younger, p.nextSeq, g.calls[1])
	}
	if got, want := *ck, *g.fixedGen.NextChunk(0, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-executed chunk differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
}
