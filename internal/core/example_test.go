package core_test

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
		f.env.Net.Send(msg.Msg{Kind: msg.BulkInvAck, Src: f.id, Dst: m.Src, Tag: m.Tag, Recall: recall})
	}
}

// Example_groupFormation drives a hand-built collision through the
// ScalableBulk engine and prints the message-level outcome: the Figure 3/4/5
// story — group formation, collision resolution at the lowest common module,
// Optimistic Commit Initiation and the commit_recall — on a six-module
// machine.
func Example_groupFormation() {
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: 6})
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(6), State: dir.NewState(6),
		Coll: stats.New(),
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
	// Scenario 2 starts at cycle 200,000, not 103: eng.Run above drains
	// every event, including P0.1's commit watchdog, which was armed at
	// cycle 0 and idles until its deadline, protocol.DefaultCommitDeadline.
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
	// Output:
	// --- Scenario 1 (Figure 3): one chunk groups modules 1, 2 and 5 ---
	// [      0] * P0 commit begin P0.1 try=0
	//        0    msg commit_request 0→1 P0.1
	//        0    msg commit_request 0→2 P0.1
	//        0    msg commit_request 0→5 P0.1
	// [     23] * D1 commit_req P0.1 try=0
	// [     23] * D2 commit_req P0.1 try=0
	// [     25] * D1 hold begin P0.1 try=0
	//       25    msg g 1→2 P0.1
	// [     30] * D5 commit_req P0.1 try=0
	// [     32] * D2 hold begin P0.1 try=0
	//       32    msg g 2→5 P0.1
	// [     39] * D5 hold begin P0.1 try=0
	//       39    msg g 5→1 P0.1
	// [     53] * D1 group_formed P0.1 try=0
	// [     53] * P0 group_formed P0.1 try=0
	//       53    msg g_success 1→2 P0.1
	//       53    msg g_success 1→5 P0.1
	//       53    msg commit_success 1→0 P0.1
	//       53    msg bulk_inv 1→3 P0.1
	//       60  P0: commit of P0.1 SUCCEEDED
	//       75    msg bulk_inv_ack 3→1 P0.1
	// [     89] * D1 commit_done P0.1 try=0
	//       89    msg commit_done 1→2 P0.1
	//       89    msg commit_done 1→5 P0.1
	// [     89] * D1 hold end P0.1 try=0
	// [     96] * D2 hold end P0.1 try=0
	// [    103] * D5 hold end P0.1 try=0
	//
	// --- Scenario 2 (Figures 4/5): colliding groups, OCI recall ---
	// [ 200000] * P2 commit begin P2.1 try=0
	//   200000    msg commit_request 2→2 P2.1
	//   200000    msg commit_request 2→3 P2.1
	// [ 200001] * D2 commit_req P2.1 try=0
	// [ 200003] * D2 hold begin P2.1 try=0
	//   200003    msg g 2→3 P2.1
	// [ 200030] * D3 commit_req P2.1 try=0
	// [ 200030] * P1 commit begin P1.1 try=0
	//   200030    msg commit_request 1→2 P1.1
	//   200030    msg commit_request 1→3 P1.1
	// [ 200032] * D3 hold begin P2.1 try=0
	//   200032    msg g 3→2 P2.1
	// [ 200046] * D2 group_formed P2.1 try=0
	// [ 200046] * P2 group_formed P2.1 try=0
	//   200046    msg g_success 2→3 P2.1
	//   200046    msg commit_success 2→2 P2.1
	//   200046    msg bulk_inv 2→1 P2.1
	//   200047  P2: commit of P2.1 SUCCEEDED
	// [ 200053] * D2 commit_req P1.1 try=0
	// [ 200055] * D2 collision P1.1 try=0 by P2.1
	// [ 200055] * D2 group_fail P1.1 try=0 cause=collision
	//   200055    msg g_failure 2→3 P1.1
	//   200055    msg commit_failure 2→1 P1.1
	// [ 200060] * D3 commit_req P1.1 try=0
	//   200061  P1: bulk_inv from P2 squashes my in-flight chunk → commit_recall
	//   200061    msg bulk_inv_ack 1→2 P2.1  [piggy-backed commit_recall for P1.1]
	// [ 200068] * D2 commit_done P2.1 try=0
	//   200068    msg commit_done 2→3 P2.1  [piggy-backed commit_recall for P1.1]
	// [ 200068] * D2 hold end P2.1 try=0
	// [ 200082] * D3 hold end P2.1 try=0
	// [ 200461] * P1 commit begin P1.1 try=1
	//   200461    msg commit_request 1→2 P1.1
	//   200461    msg commit_request 1→3 P1.1
	// [ 200484] * D2 commit_req P1.1 try=1
	// [ 200486] * D2 hold begin P1.1 try=1
	//   200486    msg g 2→3 P1.1
	// [ 200491] * D3 commit_req P1.1 try=1
	// [ 200500] * D3 hold begin P1.1 try=1
	//   200500    msg g 3→2 P1.1
	// [ 200514] * D2 group_formed P1.1 try=1
	// [ 200514] * P1 group_formed P1.1 try=1
	//   200514    msg g_success 2→3 P1.1
	//   200514    msg commit_success 2→1 P1.1
	//   200514    msg bulk_inv 2→2 P1.1
	//   200515    msg bulk_inv_ack 2→2 P1.1
	// [ 200516] * D2 commit_done P1.1 try=1
	//   200516    msg commit_done 2→3 P1.1
	// [ 200516] * D2 hold end P1.1 try=1
	//   200521  P1: commit of P1.1 SUCCEEDED
	// [ 200530] * D3 hold end P1.1 try=1
	//
	// failure causes: {Collision:1 Reserved:0 Recalled:0 Watchdog:0}
}
