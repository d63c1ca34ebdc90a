package core

import (
	"testing"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/proc"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
)

// Lines of the allocation test, homed by first touch: hot at module 1,
// private at module 0.
const (
	hotLine     sig.Line = 1000
	privateLine sig.Line = 2000
)

// loserGen deals processor 0's chunks: each writes the hot line and reads a
// line of its own, so every chunk's group is modules {0, 1}, led by 0.
type loserGen struct{}

func (loserGen) NextChunk(p int, seq uint64) *chunk.Chunk {
	return &chunk.Chunk{Tag: msg.CTag{Proc: p, Seq: seq}, Instr: 2000, Accesses: []chunk.Access{
		{Line: hotLine, Write: true},
		{Line: privateLine + sig.Line(seq)},
	}}
}

// TestFailedAttemptAllocatesOnlyMessages is the allocation gate of a warm
// failed ScalableBulk commit attempt. A winner chunk holds module 1 for good
// (its only sharer never acks the bulk invalidation), so every commit
// attempt of processor 0's chunk — a real proc.Proc — fails the same way:
// commit_request to modules 0 and 1, g from leader 0 to 1, a collision at
// 1, g_failure back to 0, commit_failure to the processor, and the
// processor's backoff and retry. The network recycles every message, so
// such an attempt allocates nothing: its messages, the watchdog deadline,
// the CST entries, the W-expansion, the processor's retry and the
// collector's attempt record all come from pools.
func TestFailedAttemptAllocatesOnlyMessages(t *testing.T) {
	const nodes = 4
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: nodes})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(nodes), State: dir.NewState(nodes),
		Coll: stats.New(),
	}
	sb := New(env, DefaultConfig())
	env.Map.Home(hotLine, 1)
	for s := sig.Line(0); s < 128; s++ {
		env.Map.Home(privateLine+s, 0)
	}
	loser := proc.New(env, sb, loserGen{}, 0, 1<<30,
		cache.Config{SizeBytes: 4 << 10, Assoc: 4}, cache.Config{SizeBytes: 32 << 10, Assoc: 8},
		proc.Config{OCIRecall: true})
	env.Cores = []dir.Core{loser, nil, nil, nil}
	rp := &dir.ReadPath{Env: env, Proto: sb}
	for i := 0; i < nodes; i++ {
		node := i
		net.Register(node, func(m *msg.Msg) {
			switch {
			case m.Kind.SideOf() == msg.SideDir:
				if !rp.HandleDir(node, m) {
					sb.HandleDir(node, m)
				}
			case node == 0:
				loser.Handle(m)
			}
			// Other processors swallow their messages: the winner's
			// sharer (node 2) never acks, so the winner holds module 1.
		})
	}

	// The winner: processor 3 commits a write of the hot line, which
	// processor 2 shares.
	env.State.AddSharer(hotLine, 2)
	winner := &chunk.Chunk{Tag: msg.CTag{Proc: 3}, Instr: 2000,
		Accesses: []chunk.Access{{Line: hotLine, Write: true}}}
	winner.Finalize(func(l sig.Line) int { return env.Map.Home(l, 3) })
	sb.RequestCommit(3, winner)
	runUntil(eng, eng.Now()+1000)
	if e := sb.mods[1].find(winner.Tag); e == nil || e.state != stConfirmed {
		t.Fatal("winner does not hold module 1")
	}

	// Warm up: pools, freelists, the watchdog lane and every bucket of the
	// engine's calendar ring reach steady state.
	loser.Start()
	coll := env.Coll
	failAttempt := func() {
		for target := coll.CommitFailures + 1; coll.CommitFailures < target; {
			if !eng.Step() {
				t.Fatal("engine ran dry")
			}
		}
	}
	for i := 0; i < 5000; i++ {
		failAttempt()
	}

	const runs = 200
	before, collisions := net.Stats(), sb.Fails.Collision
	allocs := testing.AllocsPerRun(runs, failAttempt)
	after := net.Stats()
	if coll.ChunksCommitted != 0 {
		t.Fatalf("%d chunks committed; every attempt must fail", coll.ChunksCommitted)
	}
	attempts := float64(runs + 1) // AllocsPerRun makes one extra warm-up run
	if got := float64(sb.Fails.Collision-collisions) / attempts; got != 1 {
		t.Fatalf("%.2f collisions per attempt, want 1", got)
	}
	for _, k := range []msg.Kind{msg.CommitRequest, msg.Grab, msg.GFailure, msg.CommitFailure} {
		if after.ByKind[k] == before.ByKind[k] {
			t.Errorf("no %s sent during the measured attempts", k)
		}
	}
	perAttempt := float64(after.Messages-before.Messages) / attempts
	t.Logf("%.1f messages and %.0f allocations per failed attempt", perAttempt, allocs)
	if allocs != 0 {
		t.Errorf("a failed attempt of %.1f messages allocates %.0f objects, want 0", perAttempt, allocs)
	}
}
