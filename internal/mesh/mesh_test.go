package mesh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
)

func newNet(t *testing.T, nodes int, cont bool) (*event.Engine, *Network) {
	t.Helper()
	eng := event.New()
	n := New(eng, Config{Nodes: nodes, Contention: cont})
	return eng, n
}

func TestDims(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		4:  {2, 2},
		32: {8, 4},
		64: {8, 8},
		6:  {3, 2},
	}
	for n, want := range cases {
		w, h := dims(n)
		if w != want[0] || h != want[1] {
			t.Errorf("dims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
		if w*h != n {
			t.Errorf("dims(%d) does not cover all nodes", n)
		}
	}
}

func TestHopsBasic(t *testing.T) {
	_, n := newNet(t, 64, false) // 8x8
	if got := n.Hops(0, 0); got != 0 {
		t.Errorf("Hops(0,0) = %d", got)
	}
	if got := n.Hops(0, 1); got != 1 {
		t.Errorf("Hops(0,1) = %d", got)
	}
	// Torus wraparound: node 0 to node 7 (same row, opposite end) is 1 hop.
	if got := n.Hops(0, 7); got != 1 {
		t.Errorf("Hops(0,7) = %d, want 1 (wraparound)", got)
	}
	// 0 (0,0) to 36 (4,4) is 4+4 = 8 hops = diameter.
	if got := n.Hops(0, 36); got != 8 {
		t.Errorf("Hops(0,36) = %d, want 8", got)
	}
	if n.Diameter() != 8 {
		t.Errorf("Diameter = %d, want 8", n.Diameter())
	}
}

func TestCenterIsCentral(t *testing.T) {
	_, n := newNet(t, 64, false)
	c := n.Center()
	worst := 0
	for i := 0; i < 64; i++ {
		if h := n.Hops(c, i); h > worst {
			worst = h
		}
	}
	if worst > n.Diameter() {
		t.Fatalf("center %d has eccentricity %d > diameter", c, worst)
	}
}

func TestDeliveryLatencyUncontended(t *testing.T) {
	eng, n := newNet(t, 64, false)
	var deliveredAt event.Time
	n.Register(9, func(m *msg.Msg) { deliveredAt = eng.Now() })
	n.Send(msg.Msg{Kind: msg.Grab, Src: 0, Dst: 9})
	eng.Run()
	// 0→9 on 8x8: dx=1, dy=1 → 2 hops × 7 = 14, 1 flit → +0.
	if deliveredAt != 14 {
		t.Fatalf("delivered at %d, want 14", deliveredAt)
	}
	if got := n.Latency(0, 9, msg.Grab); got != 14 {
		t.Fatalf("Latency = %d, want 14", got)
	}
}

func TestLargeMessageSerialization(t *testing.T) {
	eng, n := newNet(t, 64, false)
	var at event.Time
	n.Register(1, func(m *msg.Msg) { at = eng.Now() })
	n.Send(msg.Msg{Kind: msg.CommitRequest, Src: 0, Dst: 1})
	eng.Run()
	want := event.Time(7 + msg.CommitRequest.FlitsOf() - 1)
	if at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, n := newNet(t, 4, false)
	var at event.Time
	fired := false
	n.Register(2, func(m *msg.Msg) { at, fired = eng.Now(), true })
	n.Send(msg.Msg{Kind: msg.Grab, Src: 2, Dst: 2})
	eng.Run()
	if !fired || at != 1 {
		t.Fatalf("local delivery at %d (fired=%v), want 1", at, fired)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two large messages over the same link: the second must arrive later
	// than it would uncontended.
	engFree, nFree := newNet(t, 64, false)
	engCont, nCont := newNet(t, 64, true)

	run := func(eng *event.Engine, n *Network) event.Time {
		var last event.Time
		n.Register(1, func(m *msg.Msg) { last = eng.Now() })
		n.Send(msg.Msg{Kind: msg.CommitRequest, Src: 0, Dst: 1})
		n.Send(msg.Msg{Kind: msg.CommitRequest, Src: 0, Dst: 1})
		eng.Run()
		return last
	}
	free := run(engFree, nFree)
	cont := run(engCont, nCont)
	if cont <= free {
		t.Fatalf("contention did not delay: contended %d <= free %d", cont, free)
	}
}

func TestStatsCounting(t *testing.T) {
	eng, n := newNet(t, 16, false)
	got := 0
	n.Register(3, func(m *msg.Msg) { got++ })
	n.Send(msg.Msg{Kind: msg.Grab, Src: 0, Dst: 3})
	n.Send(msg.Msg{Kind: msg.BulkInv, Src: 0, Dst: 3})
	eng.Run()
	st := n.Stats()
	if st.Messages != 2 || st.ByKind[msg.Grab] != 1 || st.ByKind[msg.BulkInv] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestSameCycleFIFODelivery(t *testing.T) {
	// Equidistant messages injected in order arrive in order.
	eng, n := newNet(t, 16, false)
	var order []int
	n.Register(5, func(m *msg.Msg) { order = append(order, m.Src) })
	n.Register(1, func(m *msg.Msg) {})
	// 4 and 6 are both 1 hop from 5 on a 4x4 torus.
	n.Send(msg.Msg{Kind: msg.Grab, Src: 4, Dst: 5})
	n.Send(msg.Msg{Kind: msg.Grab, Src: 6, Dst: 5})
	eng.Run()
	if len(order) != 2 || order[0] != 4 || order[1] != 6 {
		t.Fatalf("order = %v, want [4 6]", order)
	}
}

// Property: hop distance is symmetric, zero iff same node, and bounded by
// the diameter.
func TestPropertyHops(t *testing.T) {
	_, n := newNet(t, 64, false)
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		h := n.Hops(x, y)
		if h != n.Hops(y, x) {
			return false
		}
		if (h == 0) != (x == y) {
			return false
		}
		return h <= n.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: routed delivery time always equals Latency() when uncontended.
func TestPropertyRoutedLatencyMatchesAnalytic(t *testing.T) {
	f := func(a, b uint8) bool {
		src, dst := int(a)%32, int(b)%32
		eng := event.New()
		n := New(eng, Config{Nodes: 32})
		var at event.Time
		n.Register(dst, func(m *msg.Msg) { at = eng.Now() })
		if src != dst {
			n.Register(src, func(m *msg.Msg) {})
		}
		n.Send(msg.Msg{Kind: msg.BulkInv, Src: src, Dst: dst})
		eng.Run()
		return at == n.Latency(src, dst, msg.BulkInv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	_, n := newNet(t, 4, false)
	n.Register(0, func(m *msg.Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double Register did not panic")
		}
	}()
	n.Register(0, func(m *msg.Msg) {})
}

func BenchmarkSend64(b *testing.B) {
	eng := event.New()
	n := New(eng, Config{Nodes: 64, Contention: true})
	for i := 0; i < 64; i++ {
		n.Register(i, func(m *msg.Msg) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(msg.Msg{Kind: msg.Grab, Src: i % 64, Dst: (i * 7) % 64})
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

func TestContentionPreservesPerLinkFIFO(t *testing.T) {
	// Two messages on the same source→destination path must arrive in
	// injection order even when the first congests the links.
	eng := event.New()
	n := New(eng, Config{Nodes: 16, Contention: true})
	var order []msg.Kind
	n.Register(3, func(m *msg.Msg) { order = append(order, m.Kind) })
	n.Register(0, func(m *msg.Msg) {})
	n.Send(msg.Msg{Kind: msg.CommitRequest, Src: 0, Dst: 3}) // 17 flits
	n.Send(msg.Msg{Kind: msg.Grab, Src: 0, Dst: 3})          // 1 flit
	eng.Run()
	if len(order) != 2 || order[0] != msg.CommitRequest || order[1] != msg.Grab {
		t.Fatalf("per-link FIFO violated: %v", order)
	}
}

func TestLatencyGrowsUnderSaturation(t *testing.T) {
	// Saturating one link makes later messages arrive later: the queueing
	// behavior behind the BulkSC/TCC congestion effects.
	eng := event.New()
	n := New(eng, Config{Nodes: 16, Contention: true})
	var last event.Time
	n.Register(1, func(m *msg.Msg) { last = eng.Now() })
	n.Register(0, func(m *msg.Msg) {})
	for i := 0; i < 50; i++ {
		n.Send(msg.Msg{Kind: msg.CommitRequest, Src: 0, Dst: 1})
	}
	eng.Run()
	uncontended := n.Latency(0, 1, msg.CommitRequest)
	if last < 10*uncontended {
		t.Fatalf("no queueing under saturation: last arrival %d vs uncontended %d", last, uncontended)
	}
}

// TestSendAtHoldsItsMessage: SendAt takes its copy from the freelist when it
// is called, and the freelist never hands that message out again while the
// send is pending; it is recycled only after its own delivery.
func TestSendAtHoldsItsMessage(t *testing.T) {
	eng, n := newNet(t, 4, false)
	var last *msg.Msg
	var seen []msg.Msg
	n.Register(0, func(m *msg.Msg) {})
	n.Register(1, func(m *msg.Msg) { last = m; seen = append(seen, *m) })

	// Put one recycled message on the freelist.
	n.Send(msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1, Line: 1})
	eng.Run()
	recycled := last

	want := msg.Msg{Kind: msg.ReadMemReply, Src: 0, Dst: 1, Tag: msg.CTag{Proc: 0, Seq: 9}, Line: 42}
	n.SendAt(eng.Now()+300, want)
	for i := 0; i < 3; i++ {
		// Scribble on whatever the freelist hands out.
		if n.newMsg(msg.Msg{Kind: msg.ReadNack, Src: 0, Dst: 1, Line: 7}) == recycled {
			t.Fatal("the freelist handed out the message a pending SendAt holds")
		}
	}
	eng.Run()
	if got := seen[len(seen)-1]; last != recycled || got.Kind != want.Kind || got.Tag != want.Tag || got.Line != want.Line {
		t.Fatalf("SendAt delivered %v line %d (recycled=%v), want %v line %d", &got, got.Line, last == recycled, &want, want.Line)
	}
	if n.newMsg(msg.Msg{}) != recycled {
		t.Fatal("SendAt's message was not recycled after its delivery")
	}
}

// TestSendAtOrdersLikeAfter: a SendAt takes the engine slot an After closure
// scheduled at the same point would, so replacing the closure changes no
// firing order. Three same-cycle sends to one node, scheduled as closure,
// deferred send and closure, arrive in scheduling order, at the same times
// and after the same number of events as three closures.
func TestSendAtOrdersLikeAfter(t *testing.T) {
	run := func(deferred bool) (order []uint64, at []event.Time, fired uint64) {
		eng, n := newNet(t, 16, true)
		n.Register(4, func(m *msg.Msg) {})
		n.Register(5, func(m *msg.Msg) { order = append(order, m.Tag.Seq); at = append(at, eng.Now()) })
		send := func(seq uint64) msg.Msg {
			return msg.Msg{Kind: msg.ReadShReply, Src: 4, Dst: 5, Tag: msg.CTag{Proc: 4, Seq: seq}}
		}
		eng.After(2, func() { n.Send(send(1)) })
		if deferred {
			n.SendAt(eng.Now()+2, send(2))
		} else {
			eng.After(2, func() { n.Send(send(2)) })
		}
		eng.After(2, func() { n.Send(send(3)) })
		eng.Run()
		return order, at, eng.Fired()
	}
	o1, a1, f1 := run(false)
	o2, a2, f2 := run(true)
	if fmt.Sprint(o1, a1, f1) != fmt.Sprint(o2, a2, f2) {
		t.Fatalf("After: order %v at %v, %d events; SendAt: order %v at %v, %d events", o1, a1, f1, o2, a2, f2)
	}
	if fmt.Sprint(o2) != "[1 2 3]" {
		t.Fatalf("delivery order %v, want [1 2 3]", o2)
	}
}

// neverHold is a Scheduler that captures no delivery.
type neverHold struct{}

func (neverHold) Hold(Delivery) bool { return false }

// TestEveryKindRecycled: on an observer-free network a delivered message of
// any kind returns to the freelist, so the next send reuses it; with a fault
// interposer, a scheduler or an observer installed, none is recycled.
func TestEveryKindRecycled(t *testing.T) {
	passThrough := &scriptInterposer{fn: func(m *msg.Msg, at event.Time) []Delivery {
		return []Delivery{{At: at, M: m}}
	}}
	setups := []struct {
		name     string
		set      func(*Network)
		recycles bool
	}{
		{"observer-free", func(*Network) {}, true},
		{"Fault", func(n *Network) { n.Fault = passThrough }, false},
		{"Sched", func(n *Network) { n.Sched = neverHold{} }, false},
		{"OnSend", func(n *Network) { n.OnSend = func(*msg.Msg) {} }, false},
		{"OnDeliver", func(n *Network) { n.OnDeliver = func(*msg.Msg) {} }, false},
	}
	for _, s := range setups {
		for k := msg.Kind(0); int(k) < msg.NumKinds; k++ {
			eng, n := newNet(t, 4, false)
			s.set(n)
			var got []*msg.Msg
			n.Register(1, func(m *msg.Msg) { got = append(got, m) })
			for i := 0; i < 2; i++ {
				n.Send(msg.Msg{Kind: k, Src: 0, Dst: 1})
				eng.Run()
			}
			if reused := got[0] == got[1]; reused != s.recycles {
				t.Errorf("%s: second %s reused the first's message: %v, want %v", s.name, k, reused, s.recycles)
			}
		}
	}
}

// xStep is the stepwise X router the mesh used before it chose each
// dimension's direction once: at every hop it re-derives the minimal
// direction on the ring and returns it with the next x.
func xStep(x, dx, w int) (dir, next int) {
	fwd := (dx - x + w) % w
	if fwd <= w-fwd {
		return dirEast, (x + 1) % w
	}
	return dirWest, (x - 1 + w) % w
}

// yStep is xStep for the Y ring.
func yStep(y, dy, h int) (dir, next int) {
	fwd := (dy - y + h) % h
	if fwd <= h-fwd {
		return dirSouth, (y + 1) % h
	}
	return dirNorth, (y - 1 + h) % h
}

// link is one directed output link: a node and a direction.
type link struct{ node, dir int }

// refRoute is the reference router: the stepwise send path on a w×h torus
// with contention on, as it was before the once-per-dimension route. It
// reserves links in busy the way send does and returns the links taken, in
// order, and the delivery time of a message of the given flits sent at now.
func refRoute(w, h int, busy [][4]event.Time, src, dst int, now, flits event.Time) ([]link, event.Time) {
	if src == dst {
		return nil, now + LocalDelay
	}
	t := now
	var hops []link
	step := func(node, dir int) {
		hops = append(hops, link{node, dir})
		if busy[node][dir] > t {
			t = busy[node][dir]
		}
		busy[node][dir] = t + flits
		t += LinkLatency
	}
	x, y := src%w, src/w
	dx, dy := dst%w, dst/w
	for x != dx {
		dir, nx := xStep(x, dx, w)
		step(y*w+x, dir)
		x = nx
	}
	for y != dy {
		dir, ny := yStep(y, dy, h)
		step(y*w+x, dir)
		y = ny
	}
	return hops, t + flits - 1
}

// captureAt is a Scheduler that holds every delivery and records its time.
type captureAt struct{ at event.Time }

func (c *captureAt) Hold(d Delivery) bool { c.at = d.At; return true }

// TestRouteMatchesStepwiseReference: for every (src, dst) on tori with
// 1-wide rings, odd rings and even rings with a half-way tie, the route
// takes the reference's links in the reference's order, leaves the same
// link reservations behind on pre-occupied links, and delivers at the same
// time with the same FlitHops.
func TestRouteMatchesStepwiseReference(t *testing.T) {
	kinds := []msg.Kind{msg.Grab, msg.CommitRequest}
	for _, nodes := range []int{1, 2, 3, 5, 6, 8, 12, 16, 64, 256} {
		eng := event.New()
		n := New(eng, Config{Nodes: nodes, Contention: true})
		capt := &captureAt{}
		n.Sched = capt
		for i := 0; i < nodes; i++ {
			n.Register(i, func(*msg.Msg) {})
		}
		// Pre-occupied links: a head flit entering at 0..7·diameter waits on
		// some of them and not on others.
		rng := rand.New(rand.NewSource(int64(nodes)))
		pre := make([][4]event.Time, nodes)
		for i := range pre {
			for d := range pre[i] {
				pre[i][d] = event.Time(rng.Intn(8*(n.Diameter()+1) + 1))
			}
		}
		idle := make([][4]event.Time, nodes)
		want := make([][4]event.Time, nodes)
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				k := kinds[(src+dst)%len(kinds)]
				flits := event.Time(k.FlitsOf())
				copy(want, pre)
				wantHops, wantAt := refRoute(n.w, n.h, want, src, dst, eng.Now(), flits)

				// The hop sequence, read off idle links: the i-th link's
				// reservation ends at i·linkLat + flits.
				copy(n.busy, idle)
				n.Send(msg.Msg{Kind: k, Src: src, Dst: dst})
				var got []link
				for node, dirs := range n.busy {
					for dir, free := range dirs {
						if free != 0 {
							got = append(got, link{node, dir})
						}
					}
				}
				slices.SortFunc(got, func(a, b link) int {
					return int(n.busy[a.node][a.dir] - n.busy[b.node][b.dir])
				})
				if !slices.Equal(got, wantHops) {
					t.Fatalf("%d nodes, %d→%d: hops %v, want %v", nodes, src, dst, got, wantHops)
				}

				copy(n.busy, pre)
				before := n.Stats().FlitHops
				n.Send(msg.Msg{Kind: k, Src: src, Dst: dst})
				if !slices.Equal(n.busy, want) {
					t.Fatalf("%d nodes, %d→%d: link reservations differ from the reference", nodes, src, dst)
				}
				if capt.at != wantAt {
					t.Fatalf("%d nodes, %d→%d: delivered at %d, want %d", nodes, src, dst, capt.at, wantAt)
				}
				if got, want := n.Stats().FlitHops-before, uint64(flits)*uint64(len(wantHops)); got != want {
					t.Fatalf("%d nodes, %d→%d: FlitHops grew by %d, want %d", nodes, src, dst, got, want)
				}
			}
		}
	}
}
