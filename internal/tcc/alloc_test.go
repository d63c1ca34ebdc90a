package tcc_test

import (
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/tcc"
)

// fakeCore stands in for a processor: it caches nothing, and closes a
// finished commit in the collector as the processor model does.
type fakeCore struct {
	env      *dir.Env
	id       int
	finished int
	ck       *chunk.Chunk
}

func (c *fakeCore) CommitFinished(tag msg.CTag) {
	c.finished++
	c.env.Coll.CommitEnded(c.id, tag.Seq, c.ck.Retries, c.env.Eng.Now(), true)
}
func (c *fakeCore) CommitRefused(msg.CTag) { panic("tcc test: commit refused") }
func (c *fakeCore) BulkInvalidate(*sig.Sig, []sig.Line, *msg.CTag) *msg.CTag {
	panic("tcc test: bulk invalidation")
}
func (c *fakeCore) InvalidateLine(sig.Line, *msg.CTag) *msg.CTag { return nil }
func (c *fakeCore) MaybeDefer(*msg.Msg) bool                     { return false }
func (c *fakeCore) ResumeInvalidations()                         {}

// TestWarmCommitAllocs commits one chunk from P0 over and over on a 2×2
// machine: it writes a line homed at module 1 that P3 shares and a line
// homed at module 2, and reads a line homed at module 3. Every commit takes
// the whole path — TID request and reply, probes to modules 1–3 and a skip
// to module 0, probe acks, commit and mark messages, a per-line
// invalidation and its ack, the mark-processing delay and the final acks —
// and, once warm, allocates nothing. The collector's attempt and
// queue-sample logs still grow by doubling; that is well under one object
// per commit, and AllocsPerRun's per-run average rounds it away, so any
// per-commit allocation shows up as at least 1.
func TestWarmCommitAllocs(t *testing.T) {
	const nodes = 4
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: nodes, Contention: true})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(nodes), State: dir.NewState(nodes),
		Coll: stats.New(),
	}
	w1, w2, r3 := sig.Line(0), sig.Line(1<<20), sig.Line(2<<20)
	env.Map.Home(w1, 1)
	env.Map.Home(w2, 2)
	env.Map.Home(r3, 3)
	ck := &chunk.Chunk{
		Tag:        msg.CTag{Proc: 0},
		ReadLines:  []sig.Line{r3},
		WriteLines: []sig.Line{w1, w2},
		Dirs:       []int{1, 2, 3},
	}
	cores := make([]*fakeCore, nodes)
	for i := range cores {
		cores[i] = &fakeCore{env: env, id: i, ck: ck}
		env.Cores = append(env.Cores, cores[i])
	}
	p := tcc.New(env, tcc.DefaultConfig())
	for i := 0; i < nodes; i++ {
		node := i
		net.Register(node, func(m *msg.Msg) {
			if m.Kind.SideOf() == msg.SideDir {
				p.HandleDir(node, m)
			} else {
				p.HandleProc(node, m)
			}
		})
	}

	commit := func() {
		env.State.AddSharer(w1, 3) // the commit before made P0 its owner
		ck.Tag.Seq++
		p.RequestCommit(0, ck)
		eng.Run() // through the commit and its watchdog deadline
		// Start the next commit on the same calendar slots.
		eng.At((eng.Now()>>16+1)<<16, func() {})
		eng.Run()
	}
	commit()
	before := net.Stats()
	if allocs := testing.AllocsPerRun(100, commit); allocs != 0 {
		t.Errorf("warm commit allocates %v objects, want 0", allocs)
	}
	if got := cores[0].finished; got != 102 {
		t.Fatalf("P0 finished %d commits, want 102", got)
	}
	after := net.Stats()
	for _, k := range []msg.Kind{msg.TIDRequest, msg.TIDReply, msg.TCCSkip, msg.TCCInval, msg.TCCInvalAck} {
		if n := after.ByKind[k] - before.ByKind[k]; n != 101 {
			t.Errorf("%s sent %d times in 101 commits, want 101", k, n)
		}
	}
	for _, k := range []msg.Kind{msg.TCCProbe, msg.TCCProbeAck, msg.TCCCommit, msg.TCCAck} {
		if n := after.ByKind[k] - before.ByKind[k]; n != 3*101 {
			t.Errorf("%s sent %d times in 101 commits, want %d", k, n, 3*101)
		}
	}
	if n := after.ByKind[msg.TCCMark] - before.ByKind[msg.TCCMark]; n != 2*101 {
		t.Errorf("tcc_mark sent %d times in 101 commits, want %d", n, 2*101)
	}
	if n := p.PendingAttempts(); n != 0 {
		t.Fatalf("%d attempts pending after the last commit", n)
	}
}
