// Package mesh models the on-chip 2D torus interconnect of the simulated
// multicore (Table 2: "Interconnect: 2D torus, link latency: 7 cycles",
// after the network simulator of Das et al. used by the paper).
//
// Nodes are tiles laid out on a W×H torus; each tile hosts one core, its
// private caches, and one directory module. Messages are routed
// dimension-order (X then Y) along the minimal wraparound direction, and pay
// the per-hop link latency plus flit serialization. With contention enabled
// (the default), each directed link is a resource that a message occupies
// for its flit count, so bursts of commit traffic queue — this is what lets
// Scalable TCC's skip/probe broadcasts congest the network in Figures 18/19.
package mesh

import (
	"fmt"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/trace"
)

// Table 2 latencies of the torus.
const (
	// LinkLatency is the per-hop link latency in cycles.
	LinkLatency event.Time = 7
	// LocalDelay is the latency of a node talking to itself.
	LocalDelay event.Time = 1
)

// Config configures a torus network.
type Config struct {
	Nodes      int  // number of tiles; factored into a near-square torus
	Contention bool // model per-link occupancy and queueing
}

// Handler receives messages delivered to a node. It never keeps m past its
// return, since the network recycles m then; it copies what it keeps.
type Handler func(*msg.Msg)

// Delivery is one planned handler invocation: message m arrives at time At.
type Delivery struct {
	At event.Time
	M  *msg.Msg
}

// Interposer sits between routing and delivery: given a message and its
// nominal arrival time, it returns the deliveries that actually happen —
// possibly delayed, duplicated, or retransmission-deferred. It is consulted
// only when installed (Network.Fault), so the fault-free path pays a single
// nil check. Implementations must be deterministic for replayability and must
// Clone the message for any extra delivery.
type Interposer interface {
	Plan(m *msg.Msg, now, at event.Time) []Delivery
}

// Scheduler intercepts planned deliveries after routing (and after any fault
// interposer rewrote them): Hold returns true to capture the delivery instead
// of scheduling it, taking ownership of the message. A captured delivery is
// re-injected later through Release, which delivers it at the engine's
// current time. This is the deterministic-replay hook the model-checking
// explorer (internal/explore) uses to enumerate message interleavings: the
// messages a run sends are fixed by the protocol, the scheduler only decides
// their delivery order. Implementations must be deterministic.
type Scheduler interface {
	Hold(d Delivery) bool
}

// Stats aggregates traffic accounting.
type Stats struct {
	ByKind    [msg.NumKinds]uint64 // messages sent, per kind
	FlitHops  uint64               // total flits × hops (link utilization)
	Messages  uint64               // total messages sent
	Delivered uint64               // handler invocations (≥ Messages under duplication)
}

// Network is a deterministic 2D torus.
type Network struct {
	eng      *event.Engine
	w, h     int
	cont     bool
	handlers []Handler
	// busy[node][dir] is the time a directed output link is free again.
	busy  [][4]event.Time
	stats Stats

	// OnSend, when non-nil, observes every injected message (the
	// invariant checker and tests). It must not mutate the message.
	OnSend func(*msg.Msg)
	// OnDeliver, when non-nil, observes every delivered message at its
	// delivery time, before the destination handler runs.
	OnDeliver func(*msg.Msg)
	// Fault, when non-nil, rewrites planned deliveries (fault injection).
	Fault Interposer
	// Sched, when non-nil, may capture planned deliveries for later
	// re-injection via Release (model-checking schedule control). It runs
	// after Fault, so fault plans are schedulable too.
	Sched Scheduler
	// Trace, when non-nil, records structured send/deliver events. Unlike
	// OnSend/OnDeliver it copies only scalars and never retains the
	// message, so it does not disable recycling.
	Trace *trace.Tracer

	// deliverFn and sendFn are the delivery and deferred-send event handlers,
	// bound once at construction, so scheduling either allocates neither a
	// closure nor a method value.
	deliverFn func(any)
	sendFn    func(any)
	// freeMsgs recycles delivered messages. The engine is single-threaded,
	// so a plain slice freelist needs no locking. Recycling is disabled
	// whenever an observer or fault interposer is installed: those may
	// retain or duplicate messages beyond the delivery handler.
	freeMsgs []*msg.Msg
}

// Link directions for dimension-order routing.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// dims factors n into the most square W×H grid with W ≥ H.
func dims(n int) (w, h int) {
	w, h = n, 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w, h = n/d, d
		}
	}
	return w, h
}

// New builds a torus for cfg.Nodes tiles.
func New(eng *event.Engine, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("mesh: need at least one node")
	}
	w, h := dims(cfg.Nodes)
	n := &Network{
		eng:      eng,
		w:        w,
		h:        h,
		cont:     cfg.Contention,
		handlers: make([]Handler, cfg.Nodes),
		busy:     make([][4]event.Time, cfg.Nodes),
	}
	n.deliverFn = n.deliver
	n.sendFn = func(arg any) { n.send(arg.(*msg.Msg)) }
	return n
}

// newMsg returns a copy of m in a message from the freelist, or in a new
// one when the freelist is empty.
func (n *Network) newMsg(m msg.Msg) *msg.Msg {
	var s *msg.Msg
	if k := len(n.freeMsgs); k > 0 {
		s = n.freeMsgs[k-1]
		n.freeMsgs = n.freeMsgs[:k-1]
	} else {
		s = new(msg.Msg)
	}
	*s = m
	return s
}

// SendAt sends a copy of m at time t: the deferred send of a reply that
// waits out a directory lookup or memory access. The copy is taken from the
// freelist now and belongs to the pending event, so the freelist cannot
// hand it out again before it is sent. The event takes one sequence number
// at the point an After(d, func() { Send(...) }) closure would, so the
// firing order is the same, but nothing is allocated.
func (n *Network) SendAt(t event.Time, m msg.Msg) {
	n.eng.AtArg(t, n.sendFn, n.newMsg(m))
}

// Nodes returns the number of tiles.
func (n *Network) Nodes() int { return n.w * n.h }

// Register installs the message handler for a node. Each node has exactly
// one handler (the tile demultiplexer installed by the system assembly).
func (n *Network) Register(node int, h Handler) {
	if n.handlers[node] != nil {
		panic(fmt.Sprintf("mesh: node %d already has a handler", node))
	}
	n.handlers[node] = h
}

func (n *Network) coord(id int) (x, y int) { return id % n.w, id / n.w }

// Hops returns the dimension-order torus distance between two nodes.
func (n *Network) Hops(a, b int) int {
	ax, ay := n.coord(a)
	bx, by := n.coord(b)
	dx := torusDist(ax, bx, n.w)
	dy := torusDist(ay, by, n.h)
	return dx + dy
}

func torusDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if size-d < d {
		d = size - d
	}
	return d
}

// Diameter returns the maximum hop count between any two nodes.
func (n *Network) Diameter() int { return n.w/2 + n.h/2 }

// Center returns the node nearest the torus center; BulkSC's arbiter and
// Scalable TCC's TID vendor live there ("arbiter in the center", Table 3).
func (n *Network) Center() int { return (n.h/2)*n.w + n.w/2 }

// Send injects a copy of m, taken from the freelist. Delivery is scheduled
// on the event engine after routing latency; the destination handler runs
// at the delivery time.
func (n *Network) Send(m msg.Msg) { n.send(n.newMsg(m)) }

func (n *Network) send(m *msg.Msg) {
	n.stats.ByKind[m.Kind]++
	n.stats.Messages++
	if n.OnSend != nil {
		n.OnSend(m)
	}
	n.Trace.MsgSend(m)
	flits := event.Time(m.Kind.FlitsOf())

	if m.Src == m.Dst {
		n.deliverAt(n.eng.Now()+LocalDelay, m)
		return
	}

	// Dimension-order route: X first, then Y, each along its minimal
	// wraparound direction (east or south on a tie). The direction cannot
	// change part-way along a ring, so it and the hop count are chosen once
	// per dimension.
	sx, sy := n.coord(m.Src)
	dx, dy := n.coord(m.Dst)
	t := n.eng.Now()
	xdir, xstep, xhops := ringRoute(sx, dx, n.w, dirEast, dirWest)
	ydir, ystep, yhops := ringRoute(sy, dy, n.h, dirSouth, dirNorth)
	x, y := sx, sy
	for i := 0; i < xhops; i++ {
		t = n.hop(y*n.w+x, xdir, t, flits)
		x = ringNext(x, xstep, n.w)
	}
	for i := 0; i < yhops; i++ {
		t = n.hop(y*n.w+x, ydir, t, flits)
		y = ringNext(y, ystep, n.h)
	}

	// Tail serialization: the message body follows the head flit.
	t += flits - 1
	n.stats.FlitHops += uint64(flits) * uint64(xhops+yhops)
	n.deliverAt(t, m)
}

// ringRoute picks the minimal direction from a to b on a ring of size
// positions, fwd on a tie. It returns the direction, its step (+1 for fwd,
// -1 for back) and the number of hops.
func ringRoute(a, b, size, fwd, back int) (dir, step, hops int) {
	d := b - a
	if d < 0 {
		d += size
	}
	if d <= size-d {
		return fwd, 1, d
	}
	return back, -1, size - d
}

// ringNext moves one step along a ring of size positions.
func ringNext(a, step, size int) int {
	a += step
	if a == size {
		return 0
	}
	if a < 0 {
		return size - 1
	}
	return a
}

// hop moves a message's head flit across node's output link in direction
// dir, entering at time t, and returns when it reaches the next node. With
// contention the link is reserved for the message's flits.
func (n *Network) hop(node, dir int, t, flits event.Time) event.Time {
	if n.cont {
		b := &n.busy[node][dir]
		if *b > t {
			t = *b
		}
		*b = t + flits
	}
	return t + LinkLatency
}

func (n *Network) deliverAt(t event.Time, m *msg.Msg) {
	if n.Fault != nil {
		for _, d := range n.Fault.Plan(m, n.eng.Now(), t) {
			n.scheduleDelivery(d.At, d.M)
		}
		return
	}
	n.scheduleDelivery(t, m)
}

func (n *Network) scheduleDelivery(t event.Time, m *msg.Msg) {
	if n.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("mesh: no handler at node %d for %s", m.Dst, m))
	}
	if n.Sched != nil && n.Sched.Hold(Delivery{At: t, M: m}) {
		return
	}
	n.eng.AtArg(t, n.deliverFn, m)
}

// Release delivers a message previously captured by the Scheduler at the
// engine's current time. The delivery runs as a normal engine event (same
// handler path, same observer taps), so a released message is
// indistinguishable from one that arrived now.
func (n *Network) Release(m *msg.Msg) {
	if n.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("mesh: no handler at node %d for %s", m.Dst, m))
	}
	n.eng.AtArg(n.eng.Now(), n.deliverFn, m)
}

// deliver is the delivery event: it runs the destination handler and, on the
// observer-free fast path, recycles the message into the freelist (see
// Handler). A handler that answers later builds its reply from the fields
// it needs and defers it with SendAt.
func (n *Network) deliver(arg any) {
	m := arg.(*msg.Msg)
	n.stats.Delivered++
	if n.OnDeliver != nil {
		n.OnDeliver(m)
	}
	n.Trace.MsgDeliver(m)
	n.handlers[m.Dst](m)
	if n.Fault == nil && n.Sched == nil && n.OnSend == nil && n.OnDeliver == nil {
		*m = msg.Msg{}
		n.freeMsgs = append(n.freeMsgs, m)
	}
}

// Latency estimates the uncontended delivery latency from a to b for a
// message of the given kind (used by analytic models and tests).
func (n *Network) Latency(a, b int, k msg.Kind) event.Time {
	if a == b {
		return LocalDelay
	}
	return event.Time(n.Hops(a, b))*LinkLatency + event.Time(k.FlitsOf()) - 1
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }
