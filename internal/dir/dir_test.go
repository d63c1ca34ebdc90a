package dir

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scalablebulk/internal/bitset"
	"scalablebulk/internal/chunk"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/stats"
)

func TestStateTouchAndSharers(t *testing.T) {
	s := NewState(8)
	if s.Get(5) != nil {
		t.Fatal("untouched line has an entry")
	}
	s.AddSharer(5, 2)
	s.AddSharer(5, 7)
	li := s.Get(5)
	if li == nil || !li.Sharers.Has(2) || !li.Sharers.Has(7) {
		t.Fatal("sharers not recorded")
	}
	if li.Dirty || li.Owner != -1 {
		t.Fatal("fresh line must be clean and unowned")
	}
}

func TestApplyCommitWrite(t *testing.T) {
	s := NewState(8)
	s.AddSharer(9, 1)
	s.AddSharer(9, 2)
	s.ApplyCommitWrite(9, 3)
	li := s.Get(9)
	if !li.Dirty || li.Owner != 3 {
		t.Fatal("commit write did not set dirty owner")
	}
	if li.Sharers.Has(1) || li.Sharers.Has(2) || !li.Sharers.Has(3) {
		t.Fatalf("sharers after commit = %s", li.Sharers.String())
	}
}

func TestSharersOfFiltersByHome(t *testing.T) {
	s := NewState(8)
	mp := mem.NewMapper(4)
	// Page of line 0 homed at dir 1; page of line 128 homed at dir 2.
	mp.Home(0, 1)
	mp.Home(128, 2)
	s.AddSharer(0, 5)
	s.AddSharer(128, 6)

	var dst bitset.Set
	s.SharersOf([]sig.Line{0, 128}, 1, mp, -1, &dst)
	if !dst.Has(5) || dst.Has(6) {
		t.Fatalf("home filter failed: %s", dst.String())
	}
	// Exclusion of the committer.
	dst.Clear()
	s.SharersOf([]sig.Line{0}, 1, mp, 5, &dst)
	if !dst.Empty() {
		t.Fatalf("committer not excluded: %s", dst.String())
	}
	// Unmapped lines are skipped.
	dst.Clear()
	s.SharersOf([]sig.Line{99999}, 1, mp, -1, &dst)
	if !dst.Empty() {
		t.Fatal("unmapped line produced sharers")
	}
}

// fakeProto nacks reads to one specific line.
type fakeProto struct{ blocked sig.Line }

func (f *fakeProto) Name() string                          { return "fake" }
func (f *fakeProto) RequestCommit(int, *chunk.Chunk)       {}
func (f *fakeProto) HandleDir(int, *msg.Msg)               {}
func (f *fakeProto) HandleProc(int, *msg.Msg)              {}
func (f *fakeProto) ReadBlocked(node int, l sig.Line) bool { return l == f.blocked }

var _ Protocol = (*fakeProto)(nil)

func testEnv(t *testing.T, nodes int) (*Env, *mesh.Network, *event.Engine) {
	t.Helper()
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: nodes})
	env := &Env{
		Eng: eng, Net: net, Map: mem.NewMapper(nodes), State: NewState(nodes),
		Coll: stats.New(),
	}
	return env, net, eng
}

func TestReadPathMemoryRead(t *testing.T) {
	env, net, eng := testEnv(t, 4)
	rp := &ReadPath{Env: env}
	var got *msg.Msg
	net.Register(0, func(m *msg.Msg) { c := *m; got = &c }) // copy: the network recycles delivered messages
	net.Register(1, func(m *msg.Msg) { rp.HandleDir(1, m) })

	env.Map.Home(10, 1)
	net.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 10})
	eng.Run()
	if got == nil || got.Kind != msg.ReadMemReply {
		t.Fatalf("got %v, want read_mem_reply", got)
	}
	if eng.Now() < 300 {
		t.Fatalf("memory read completed in %d cycles, faster than memory", eng.Now())
	}
	if li := env.State.Get(10); li == nil || !li.Sharers.Has(0) {
		t.Fatal("requester not recorded as sharer")
	}
}

func TestReadPathSharedRead(t *testing.T) {
	env, net, eng := testEnv(t, 4)
	rp := &ReadPath{Env: env}
	var got *msg.Msg
	net.Register(0, func(m *msg.Msg) { c := *m; got = &c }) // copy: the network recycles delivered messages
	net.Register(1, func(m *msg.Msg) { rp.HandleDir(1, m) })

	env.Map.Home(10, 1)
	env.State.AddSharer(10, 3) // someone already caches it
	net.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 10})
	eng.Run()
	if got == nil || got.Kind != msg.ReadShReply {
		t.Fatalf("got %v, want read_sh_reply", got)
	}
	if eng.Now() >= 300 {
		t.Fatal("shared read paid memory latency")
	}
}

func TestReadPathDirtyForward(t *testing.T) {
	env, net, eng := testEnv(t, 4)
	rp := &ReadPath{Env: env}
	var got *msg.Msg
	net.Register(0, func(m *msg.Msg) { c := *m; got = &c }) // copy: the network recycles delivered messages
	net.Register(1, func(m *msg.Msg) { rp.HandleDir(1, m) })
	net.Register(2, func(m *msg.Msg) { rp.HandleDir(2, m) }) // owner tile

	env.Map.Home(10, 1)
	env.State.ApplyCommitWrite(10, 2) // P2 owns line 10 dirty
	net.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 10})
	eng.Run()
	if got == nil || got.Kind != msg.ReadDirtyReply {
		t.Fatalf("got %v, want read_dirty_reply", got)
	}
	li := env.State.Get(10)
	if li.Dirty || !li.Sharers.Has(0) {
		t.Fatal("dirty read did not downgrade to shared")
	}
	// Second read is now a shared read.
	st := net.Stats()
	if st.ByKind[msg.ReadDirtyFwd] != 1 {
		t.Fatalf("dirty fwd count = %d", st.ByKind[msg.ReadDirtyFwd])
	}
}

func TestReadPathNack(t *testing.T) {
	env, net, eng := testEnv(t, 4)
	rp := &ReadPath{Env: env, Proto: &fakeProto{blocked: 10}}
	var got *msg.Msg
	net.Register(0, func(m *msg.Msg) { c := *m; got = &c }) // copy: the network recycles delivered messages
	net.Register(1, func(m *msg.Msg) { rp.HandleDir(1, m) })

	env.Map.Home(10, 1)
	net.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 10})
	eng.Run()
	if got == nil || got.Kind != msg.ReadNack {
		t.Fatalf("got %v, want read_nack", got)
	}
	if env.Coll.ReadNacks != 1 {
		t.Fatalf("ReadNacks = %d", env.Coll.ReadNacks)
	}
}

func TestReadPathIgnoresNonReadMessages(t *testing.T) {
	env, _, _ := testEnv(t, 4)
	rp := &ReadPath{Env: env}
	if rp.HandleDir(0, &msg.Msg{Kind: msg.Grab}) {
		t.Fatal("read path consumed a protocol message")
	}
}

func TestSharersOfAllIgnoresHomes(t *testing.T) {
	s := NewState(8)
	s.AddSharer(0, 5)
	s.AddSharer(128, 6)
	s.AddSharer(128, 7)
	var dst bitset.Set
	s.SharersOfAll([]sig.Line{0, 128, 999}, 6, &dst)
	if !dst.Has(5) || !dst.Has(7) {
		t.Fatalf("missing sharers: %s", dst.String())
	}
	if dst.Has(6) {
		t.Fatal("exclusion failed")
	}
}

// TestWarmReadMissAllocs: once the freelist, the engine's calendar slots and
// the line's entry exist, a read miss allocates nothing on the
// directory side, whichever of the three ways it is served. Every miss
// starts on a 1<<16-cycle boundary so it reuses the same calendar slots.
func TestWarmReadMissAllocs(t *testing.T) {
	cases := []struct {
		name  string
		reply msg.Kind
		prep  func(*State) // restores the line's entry before each miss
	}{
		{"MemRd", msg.ReadMemReply, func(s *State) { s.Touch(10).Sharers.Remove(0) }},
		{"RemoteShRd", msg.ReadShReply, func(s *State) {
			s.AddSharer(10, 3)
			s.Touch(10).Sharers.Remove(0)
		}},
		{"RemoteDirtyRd", msg.ReadDirtyReply, func(s *State) { s.ApplyCommitWrite(10, 2) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env, net, eng := testEnv(t, 4)
			rp := &ReadPath{Env: env}
			var got msg.Kind
			net.Register(0, func(m *msg.Msg) { got = m.Kind })
			net.Register(1, func(m *msg.Msg) { rp.HandleDir(1, m) })
			net.Register(2, func(m *msg.Msg) { rp.HandleDir(2, m) }) // dirty owner's tile
			env.Map.Home(10, 1)
			env.State.Touch(10) // create the line's entry once
			miss := func() {
				c.prep(env.State)
				got = -1
				net.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 10})
				eng.Run()
				eng.At((eng.Now()>>16+1)<<16, func() {}) // idle to the next boundary
				eng.Run()
			}
			miss()
			if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
				t.Errorf("warm %s miss allocates %v objects, want 0", c.name, allocs)
			}
			if got != c.reply {
				t.Fatalf("reply %v, want %v", got, c.reply)
			}
		})
	}
}

// TestImageRoundTrip: a clean directory restored from its image has the same
// entries, up to 256 cores (four sharer words per line), and encodes to the
// same image; a restored state is its own copy; a dirty or owned line has no
// image.
func TestImageRoundTrip(t *testing.T) {
	for _, cores := range []int{1, 64, 65, 256} {
		r := rand.New(rand.NewSource(int64(cores)))
		s := NewState(cores)
		touched := []sig.Line{99999}
		for i := 0; i < 4000; i++ {
			l := sig.Line(r.Intn(1500))
			s.AddSharer(l, r.Intn(cores))
			touched = append(touched, l)
		}
		s.Touch(99999) // an entry with no sharers
		im := s.Snapshot()
		if im == nil {
			t.Fatalf("%d cores: clean directory has no image", cores)
		}
		a, b := NewState(cores), NewState(cores)
		a.AddSharer(123456, 0) // Restore replaces what was there
		a.Restore(im)
		a.AddSharer(1, cores-1)
		a.ApplyCommitWrite(2, 0)
		b.Restore(im)
		if !reflect.DeepEqual(b.Snapshot(), im) {
			t.Fatalf("%d cores: restored directory encodes to another image", cores)
		}
		for _, l := range touched {
			got, li := b.Get(l), s.Get(l)
			if got == nil || got.Owner != -1 || got.Dirty ||
				got.Sharers.String() != li.Sharers.String() {
				t.Fatalf("%d cores: line %d restored as %+v, want sharers %s", cores, l, got, li.Sharers.String())
			}
		}
		if a.Get(123456) != nil {
			t.Fatalf("%d cores: Restore kept an entry the image does not have", cores)
		}
		// Growing a restored line's sharers must not spill into the next.
		slices.Sort(touched)
		touched = slices.Compact(touched)
		for _, l := range touched {
			b.AddSharer(l, 300)
		}
		for _, l := range touched {
			if want := s.Get(l).Sharers.Count() + 1; b.Get(l).Sharers.Count() != want {
				t.Fatalf("%d cores: line %d has %d sharers, want %d", cores, l, b.Get(l).Sharers.Count(), want)
			}
		}
	}
	s := NewState(8)
	s.AddSharer(5, 1)
	s.ApplyCommitWrite(6, 2)
	if s.Snapshot() != nil {
		t.Fatal("directory with a dirty line has an image")
	}
}

// TestAddSharerAllocs: adding any of a machine's cores as a sharer of a line
// the state holds writes the line's inline sharer words and allocates
// nothing, at 64 and at 1024 cores. Each call adds the highest and one other
// core to a line that had no sharers yet.
func TestAddSharerAllocs(t *testing.T) {
	for _, cores := range []int{64, 1024} {
		s := NewState(cores)
		line := func(i int) sig.Line { return 1<<50 + sig.Line(i)*37 } // pages at 2⁴³ and up
		for i := 0; i < cores; i++ {
			s.Touch(line(i))
		}
		i := 0
		add := func() {
			s.Get(line(i)).Sharers.Add(cores - 1)
			s.AddSharer(line(i), i)
			i++
		}
		if allocs := testing.AllocsPerRun(cores-1, add); allocs != 0 {
			t.Errorf("%d cores: adding a sharer allocates %v objects, want 0", cores, allocs)
		}
		for i := 0; i < cores; i++ {
			if sh := s.Get(line(i)).Sharers; !sh.Has(i) || !sh.Has(cores-1) || sh.Count() != min(2, cores-i) {
				t.Fatalf("%d cores: line %d has sharers %s", cores, i, sh.String())
			}
		}
	}
}
