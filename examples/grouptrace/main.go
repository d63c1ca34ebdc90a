// Grouptrace drives a hand-built collision through the ScalableBulk engine
// and prints the message-level outcome: the Figure 3/4/5 story — group
// formation, collision resolution at the lowest common module, Optimistic
// Commit Initiation and the commit_recall — on a six-module machine.
package main

import (
	"fmt"
	"os"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/core"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
)

// procSim is a miniature committing processor, enough to ack invalidations
// with OCI recalls and retry failed commits.
type procSim struct {
	id    int
	env   *dir.Env
	proto *core.Protocol
	chk   *chunk.Chunk
	done  bool
}

func (f *procSim) handle(m *msg.Msg) {
	switch m.Kind {
	case msg.CommitSuccess:
		if f.chk != nil && m.Tag == f.chk.Tag {
			fmt.Printf("%8d  P%d: commit of %s SUCCEEDED\n", f.env.Eng.Now(), f.id, m.Tag)
			f.done = true
		}
	case msg.CommitFailure:
		if f.chk != nil && m.Tag == f.chk.Tag && uint64(f.chk.Retries) == m.TID {
			fmt.Printf("%8d  P%d: commit of %s failed; retrying\n", f.env.Eng.Now(), f.id, m.Tag)
			f.chk.Retries++
			ck := f.chk
			f.env.Eng.After(120, func() { f.proto.RequestCommit(f.id, ck) })
		}
	case msg.BulkInv:
		var recall *msg.RecallInfo
		if f.chk != nil && !f.done && f.chk.ConflictsWith(m.W()) {
			fmt.Printf("%8d  P%d: bulk_inv from P%d squashes my in-flight chunk → commit_recall\n",
				f.env.Eng.Now(), f.id, m.Tag.Proc)
			recall = &msg.RecallInfo{Tag: f.chk.Tag, Try: uint64(f.chk.Retries), GVec: f.chk.Dirs}
			f.chk.Retries++
			ck := f.chk
			// Re-execute, then retry the commit.
			f.env.Eng.After(400, func() { f.proto.RequestCommit(f.id, ck) })
		}
		f.env.Net.Send(&msg.Msg{Kind: msg.BulkInvAck, Src: f.id, Dst: m.Src, Tag: m.Tag, Recall: recall})
	}
}

func main() {
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: 6, LinkLatency: 7})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(6), State: dir.NewState(),
		Coll: stats.New(), DirLookup: 2, MemLatency: 300,
	}
	// Structured protocol trace, rendered as text lines on stdout.
	env.Trace = trace.New(eng, trace.NewText(os.Stdout))
	env.Coll.Trace = env.Trace
	proto := core.New(env, core.DefaultConfig())
	net.OnSend = func(m *msg.Msg) {
		extra := ""
		if m.Recall != nil {
			extra = fmt.Sprintf("  [piggy-backed commit_recall for %s]", m.Recall.Tag)
		}
		fmt.Printf("%8d    msg %s%s\n", eng.Now(), m, extra)
	}

	procs := make([]*procSim, 6)
	for i := range procs {
		procs[i] = &procSim{id: i, env: env, proto: proto}
		node := i
		rp := &dir.ReadPath{Env: env, Proto: proto}
		net.Register(node, func(m *msg.Msg) {
			if m.Kind.SideOf() == msg.SideDir {
				if !rp.HandleDir(node, m) {
					proto.HandleDir(node, m)
				}
			} else {
				procs[node].handle(m)
			}
		})
	}

	// Home pages on specific modules: line 1000·d lives on module d.
	mk := func(proc int, seq uint64, writes ...sig.Line) *chunk.Chunk {
		ck := &chunk.Chunk{Tag: msg.CTag{Proc: proc, Seq: seq}, Instr: 2000}
		for _, l := range writes {
			env.Map.Home(l, int(l)/1000%6)
			ck.Accesses = append(ck.Accesses, chunk.Access{Line: l, Write: true})
		}
		ck.Finalize(func(l sig.Line) int { h, _ := env.Map.HomeIfMapped(l); return h })
		return ck
	}

	fmt.Println("--- Scenario 1 (Figure 3): one chunk groups modules 1, 2 and 5 ---")
	c1 := mk(0, 1, 1000, 2000, 5000)
	env.State.AddSharer(2000, 3) // P3 caches a written line → bulk_inv traffic
	procs[0].chk = c1
	proto.RequestCommit(0, c1)
	eng.Run()

	fmt.Println()
	fmt.Println("--- Scenario 2 (Figures 4/5): colliding groups, OCI recall ---")
	// P1 and P2 write overlapping addresses: their groups share modules 2,3.
	a := mk(1, 1, 2064, 3064)
	b := mk(2, 1, 2064, 3100)
	// Each caches the line the other writes, so the winner's bulk_inv hits
	// the loser while the loser's own commit is in flight (the OCI case).
	env.State.AddSharer(2064, 1)
	env.State.AddSharer(2064, 2)
	procs[1].chk = a
	procs[2].chk = b
	proto.RequestCommit(2, b) // P2 gets a head start and wins
	eng.After(30, func() { proto.RequestCommit(1, a) })
	eng.Run()

	fmt.Printf("\nfailure causes: %+v\n", proto.Fails)
}
