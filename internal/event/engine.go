// Package event implements the deterministic discrete-event simulation (DES)
// engine that drives the whole machine model: the global cycle clock and an
// ordered queue of pending events.
//
// The engine is strictly deterministic: events scheduled for the same cycle
// fire in the order they were scheduled (FIFO tie-breaking by a monotonically
// increasing sequence number). All components of the simulated multicore —
// cores, caches, the torus network, directory modules, and the commit
// protocol engines — share a single Engine on one goroutine, so a given
// configuration and random seed always produces bit-identical results. The
// simulator parallelizes across runs (Session sweeps, farm workers), not
// within one: commit rounds serialize on the directories they touch, and a
// sharded engine measured slower than this one (DESIGN.md §17).
//
// Internally the queue is a calendar (bucket) queue tuned for the event
// horizon the machine model actually generates: almost every event lands
// within a few hundred cycles of now (link hops at +7, directory lookups at
// +2, memory at +300, commit retries under ~2k), so the near future is a
// ring of per-cycle buckets where push and pop are O(1), while the rare
// long-horizon events (the +200k commit watchdogs) wait in a small overflow
// heap and migrate into the ring as the window slides over them. The old
// container/heap implementation survives for tests only (heap_test.go) as
// the reference oracle: the equivalence tests in this package cross-check
// the two for identical firing order.
package event

import (
	"fmt"
)

// Time is the simulation clock, measured in processor cycles.
type Time uint64

// Handler is a callback invoked when an event fires. It runs at the event's
// scheduled time; Engine.Now() inside the handler returns that time.
type Handler func()

// window is the calendar span: events within [now, now+window) live in the
// per-cycle ring, later ones in the overflow heap. It must be a power of two
// and comfortably exceed the common event horizon (memory at +300, capped
// commit backoff under ~2k) so the ring absorbs virtually all traffic.
const (
	windowBits = 12
	window     = Time(1) << windowBits
	windowMask = window - 1
)

type item struct {
	at  Time
	seq uint64
	// Exactly one of fn/afn is set. afn(arg) avoids a closure allocation on
	// the hottest scheduling path (network message delivery).
	fn   Handler
	afn  func(any)
	arg  any
	dead bool
}

// bucket is one ring slot: a FIFO of same-cycle items. head indexes the next
// unconsumed item so popping is O(1) without memmove; the backing slice is
// reused across window wraps.
type bucket struct {
	items []*item
	head  int
}

// maxIdleBucketCap bounds the backing capacity a drained bucket keeps across
// window wraps. Without a cap every slot retains the largest same-cycle burst
// it ever saw (a 1024-core commit broadcast can park a KB-scale slice in each
// of 4096 slots for the rest of the run); with it, a drained bucket larger
// than the common-case burst is released back to the allocator.
const maxIdleBucketCap = 128

// reset empties a drained bucket, dropping oversized backing storage.
func (b *bucket) reset() {
	if cap(b.items) > maxIdleBucketCap {
		b.items = nil
	} else {
		b.items = b.items[:0]
	}
	b.head = 0
}

func (b *bucket) push(it *item) {
	if b.head > 0 && b.head == len(b.items) {
		b.reset()
	}
	b.items = append(b.items, it)
}

// Ticket identifies a scheduled event so it can be cancelled before firing.
type Ticket struct {
	it  *item
	seq uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a harmless no-op: items are pooled, so the
// ticket's sequence number guards against a stale cancel hitting a recycled
// slot.
func (t Ticket) Cancel() {
	if t.it != nil && t.it.seq == t.seq {
		t.it.dead = true
	}
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// Calendar ring: buckets[t&windowMask] holds the items scheduled for
	// cycle t, for t in [cursor, cursor+window). cursor is the scan position:
	// every live item in the ring is at cursor or later, and at rest (outside
	// Step) cursor never exceeds the earliest live ring item.
	buckets []bucket
	cursor  Time
	near    int // items in the ring, cancelled included

	over overflow // long-horizon items, cancelled included

	pending int // near + len(over)
	free    []*item
}

// New returns a fresh engine with the clock at cycle 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events that have fired; useful for
// progress reporting and for asserting determinism in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue (including
// cancelled ones that have not yet been discarded).
func (e *Engine) Pending() int { return e.pending }

func (e *Engine) alloc() *item {
	if n := len(e.free); n > 0 {
		it := e.free[n-1]
		e.free = e.free[:n-1]
		return it
	}
	return &item{}
}

func (e *Engine) release(it *item) {
	it.fn = nil
	it.afn = nil
	it.arg = nil
	it.dead = false
	// Invalidate the sequence number so a stale Cancel (a ticket for an event
	// that already fired) cannot match the pooled slot and assassinate the
	// unrelated event that next reuses it.
	it.seq = ^uint64(0)
	e.free = append(e.free, it)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a simulator bug, not a recoverable condition.
func (e *Engine) At(t Time, fn Handler) Ticket {
	it := e.schedule(t)
	it.fn = fn
	return Ticket{it, it.seq}
}

// AtArg schedules fn(arg) at absolute time t. It is At without the closure
// allocation: fn is typically a long-lived method value and arg the event's
// payload, so the only per-event allocation is the pooled queue slot.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Ticket {
	it := e.schedule(t)
	it.afn = fn
	it.arg = arg
	return Ticket{it, it.seq}
}

func (e *Engine) schedule(t Time) *item {
	if t < e.now {
		panic(fmt.Sprintf("event: schedule at %d before now %d", t, e.now))
	}
	if e.buckets == nil {
		e.buckets = make([]bucket, window)
	}
	// Between a RunUntil that idles the clock forward and the next Step, now
	// may have passed cursor; the ring below now is empty, so snap forward.
	if e.cursor < e.now {
		e.cursor = e.now
	}
	it := e.alloc()
	it.at = t
	it.seq = e.seq
	e.seq++
	if t < e.cursor+window {
		e.buckets[t&windowMask].push(it)
		e.near++
	} else {
		e.over.push(it)
	}
	e.pending++
	return it
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn Handler) Ticket { return e.At(e.now+d, fn) }

// AfterArg is AtArg relative to now.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Ticket {
	return e.AtArg(e.now+d, fn, arg)
}

// migrate moves overflow items whose time has entered the ring window into
// their buckets. Ring buckets are FIFO by sequence number; an item that
// waited in the overflow heap may carry an older sequence number than
// same-cycle items scheduled directly into the ring, so it is merged into
// sequence position rather than appended.
func (e *Engine) migrate() {
	for !e.over.empty() && e.over.min().at < e.cursor+window {
		it := e.over.pop()
		if it.dead {
			e.pending--
			e.release(it)
			continue
		}
		b := &e.buckets[it.at&windowMask]
		pos := len(b.items)
		for pos > b.head && b.items[pos-1].seq > it.seq {
			pos--
		}
		b.items = append(b.items, nil)
		copy(b.items[pos+1:], b.items[pos:])
		b.items[pos] = it
		e.near++
	}
}

// next advances cursor to the earliest live item and returns it, leaving it
// queued. It discards cancelled items along the way. Returns nil when the
// queue holds no live events.
func (e *Engine) next() *item {
	if e.cursor < e.now {
		e.cursor = e.now
	}
	for e.pending > 0 {
		e.migrate()
		if e.near == 0 {
			if e.over.empty() {
				return nil // migrate drained the last (cancelled) items
			}
			// Everything lives beyond the window: slide it to the overflow
			// minimum (the migrate at the top of the loop pulls it in).
			e.cursor = e.over.min().at
			continue
		}
		b := &e.buckets[e.cursor&windowMask]
		for b.head < len(b.items) {
			it := b.items[b.head]
			if !it.dead {
				return it
			}
			b.items[b.head] = nil
			b.head++
			e.near--
			e.pending--
			e.release(it)
		}
		b.reset()
		e.cursor++
	}
	return nil
}

// RingResidency reports the total backing capacity (in item slots) retained
// across the calendar ring's buckets — the memory the ring is holding onto
// between bursts. Exposed as a metrics gauge; the maxIdleBucketCap shrink
// keeps it bounded by window × maxIdleBucketCap.
func (e *Engine) RingResidency() uint64 {
	var total uint64
	for i := range e.buckets {
		total += uint64(cap(e.buckets[i].items))
	}
	return total
}

// Step fires the single earliest pending event and advances the clock to its
// time. It reports whether an event fired (false when the queue is empty).
func (e *Engine) Step() bool {
	it := e.next()
	if it == nil {
		return false
	}
	b := &e.buckets[e.cursor&windowMask]
	b.items[b.head] = nil
	b.head++
	e.near--
	e.pending--
	e.now = it.at
	e.fired++
	fn, afn, arg := it.fn, it.afn, it.arg
	e.release(it)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// peek returns the time of the earliest live event without advancing the
// scan cursor (so a RunUntil that stops early leaves the calendar invariants
// untouched for later scheduling). It discards cancelled items it encounters.
func (e *Engine) peek() (Time, bool) {
	if e.cursor < e.now {
		e.cursor = e.now
	}
	for !e.over.empty() && e.over.min().dead {
		e.pending--
		e.release(e.over.pop())
	}
	var best Time
	found := false
	if !e.over.empty() {
		best = e.over.min().at
		found = true
	}
	for c := e.cursor; e.near > 0 && c < e.cursor+window; c++ {
		b := &e.buckets[c&windowMask]
		for b.head < len(b.items) && b.items[b.head].dead {
			it := b.items[b.head]
			b.items[b.head] = nil
			b.head++
			e.near--
			e.pending--
			e.release(it)
		}
		if b.head < len(b.items) {
			if at := b.items[b.head].at; !found || at < best {
				best = at
				found = true
			}
			break
		}
	}
	return best, found
}

// NextAt returns the time of the earliest live pending event without firing
// it (false when the queue is empty). The model-checking explorer uses it to
// decide whether to keep stepping the engine or to open a scheduling choice
// point; like peek it discards cancelled items it scans past, which never
// changes firing order.
func (e *Engine) NextAt() (Time, bool) { return e.peek() }

// RunUntil fires events with time ≤ limit, leaving later events queued, and
// advances the clock to limit. It returns the number of events fired.
func (e *Engine) RunUntil(limit Time) uint64 {
	start := e.fired
	for {
		t, ok := e.peek()
		if !ok || t > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.fired - start
}

// RunFor is RunUntil(Now()+d).
func (e *Engine) RunFor(d Time) uint64 { return e.RunUntil(e.now + d) }

// overflow is a minimal binary min-heap ordered by (at, seq), holding the
// rare events scheduled beyond the calendar window.
type overflow struct{ h []*item }

func (o *overflow) empty() bool { return len(o.h) == 0 }
func (o *overflow) min() *item  { return o.h[0] }

func (o *overflow) less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (o *overflow) push(it *item) {
	o.h = append(o.h, it)
	i := len(o.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(o.h[i], o.h[p]) {
			break
		}
		o.h[i], o.h[p] = o.h[p], o.h[i]
		i = p
	}
}

func (o *overflow) pop() *item {
	top := o.h[0]
	n := len(o.h) - 1
	o.h[0] = o.h[n]
	o.h[n] = nil
	o.h = o.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && o.less(o.h[l], o.h[s]) {
			s = l
		}
		if r < n && o.less(o.h[r], o.h[s]) {
			s = r
		}
		if s == i {
			break
		}
		o.h[i], o.h[s] = o.h[s], o.h[i]
		i = s
	}
	return top
}
