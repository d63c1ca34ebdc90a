package event

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// trace drives a scheduler through a scripted random workload and records
// the exact firing order. Both engines must produce bit-identical traces.
type scheduler interface {
	Now() Time
	Pending() int
	Fired() uint64
	Step() bool
}

// script is a deterministic schedule: initial events, handler-spawned
// events, and cancellations, all derived from one seed. Delays mimic the
// machine model: mostly short (+2, +7, +300), with rare +200k watchdogs that
// exercise the calendar overflow heap, plus same-cycle collisions scheduled
// both inside and outside the window to exercise the seq-order bucket merge.
func runScript(t *testing.T, seed int64, mk func() (scheduler, func(Time, Handler) func())) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng, at := mk()

	var trace []string
	var cancels []func()
	id := 0
	delays := []Time{1, 2, 2, 7, 7, 7, 13, 48, 300, 1600, 5000, 200_000}

	var spawn func(depth int) Handler
	spawn = func(depth int) Handler {
		myID := id
		id++
		return func() {
			trace = append(trace, fmt.Sprintf("%d@%d", myID, eng.Now()))
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					d := delays[rng.Intn(len(delays))]
					c := at(eng.Now()+d, spawn(depth+1))
					if rng.Intn(8) == 0 {
						cancels = append(cancels, c)
					}
				}
			}
		}
	}

	for i := 0; i < 60; i++ {
		d := delays[rng.Intn(len(delays))]
		c := at(d, spawn(0))
		if rng.Intn(6) == 0 {
			cancels = append(cancels, c)
		}
	}
	// A burst of same-cycle events far out: some land in the overflow heap
	// now, the rest are scheduled into the ring after time advances, so FIFO
	// across the two paths is on trial.
	for i := 0; i < 10; i++ {
		at(199_000, spawn(0))
	}
	for _, c := range cancels {
		c()
	}
	cancels = nil

	// Mix stepping with late scheduling.
	for eng.Fired() < 20 && eng.Step() {
	}
	at(eng.Now()+3, spawn(0))
	for eng.Step() {
		if eng.Fired() == 40 {
			at(eng.Now(), spawn(0)) // same-cycle from a non-handler context
		}
	}
	at(eng.Now()+299_999, spawn(1)) // far event on the drained queue
	for eng.Step() {
	}
	if eng.Pending() != 0 {
		t.Fatalf("events left pending: %d", eng.Pending())
	}
	trace = append(trace, fmt.Sprintf("end@%d fired=%d", eng.Now(), eng.Fired()))
	return trace
}

// TestCalendarMatchesHeapReference drives the calendar Engine and the heap
// reference through identical schedules and requires identical firing order.
func TestCalendarMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cal := runScript(t, seed, func() (scheduler, func(Time, Handler) func()) {
			e := New()
			return e, func(at Time, fn Handler) func() { tk := e.At(at, fn); return tk.Cancel }
		})
		ref := runScript(t, seed, func() (scheduler, func(Time, Handler) func()) {
			e := NewHeap()
			return e, func(at Time, fn Handler) func() { tk := e.At(at, fn); return tk.Cancel }
		})
		if len(cal) != len(ref) {
			t.Fatalf("seed %d: trace lengths differ: calendar %d vs heap %d", seed, len(cal), len(ref))
		}
		for i := range cal {
			if cal[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at %d: calendar %q vs heap %q", seed, i, cal[i], ref[i])
			}
		}
	}
}

// Property: under random (delay, cancel) vectors the two engines fire the
// same number of events at the same final clock.
func TestPropertyCalendarHeapAgree(t *testing.T) {
	f := func(delays []uint32, cancelMask []bool, seed int64) bool {
		if len(delays) > 300 {
			delays = delays[:300]
		}
		cal := New()
		ref := NewHeap()
		var calOrder, refOrder []int
		calCancel := make([]func(), len(delays))
		refCancel := make([]func(), len(delays))
		for i, d := range delays {
			i := i
			at := Time(d % 500_000)
			tk := cal.At(at, func() { calOrder = append(calOrder, i) })
			calCancel[i] = tk.Cancel
			hk := ref.At(at, func() { refOrder = append(refOrder, i) })
			refCancel[i] = hk.Cancel
		}
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				calCancel[i]()
				refCancel[i]()
			}
		}
		cal.Run()
		ref.Run()
		if len(calOrder) != len(refOrder) || cal.Now() != ref.Now() || cal.Fired() != ref.Fired() {
			return false
		}
		for i := range calOrder {
			if calOrder[i] != refOrder[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// simLoad approximates the simulator's event mix: chains of short-delay
// events (link hops, directory lookups), occasional +300 memory trips, and
// +200k watchdogs that are cancelled before firing.
func simLoad(n int, at func(Time, Handler) func(), now func() Time, step func() bool) {
	var watchdogs []func()
	var chain Handler
	left := n
	chain = func() {
		if left == 0 {
			return
		}
		left--
		d := Time(7)
		switch left % 29 {
		case 0:
			d = 300
		case 1:
			d = 2
		}
		at(now()+d, chain)
		if left%97 == 0 {
			watchdogs = append(watchdogs, at(now()+200_000, func() {}))
		}
		if len(watchdogs) > 4 {
			watchdogs[0]()
			watchdogs = watchdogs[1:]
		}
	}
	at(1, chain)
	for step() {
	}
}

func BenchmarkEngineCalendar(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		simLoad(10_000,
			func(t Time, fn Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
	}
}

func BenchmarkEngineHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewHeap()
		simLoad(10_000,
			func(t Time, fn Handler) func() { tk := e.At(t, fn); return tk.Cancel },
			e.Now, e.Step)
	}
}

// reserver is the reserved-seq view of an engine: reserve takes a sequence
// number for an event at t, and place later commits it. On the calendar
// Engine that is ReserveSeq then AtArgSeq; on the heap reference reserve
// schedules at once and place does nothing, which is the order a reserved
// event must reproduce.
type reserver struct {
	scheduler
	after   func(d Time, fn Handler)
	reserve func(t Time, fn Handler) (place func())
}

func calendarReserver() reserver {
	e := New()
	run := func(arg any) { arg.(Handler)() }
	return reserver{
		scheduler: e,
		after:     func(d Time, fn Handler) { e.After(d, fn) },
		reserve: func(t Time, fn Handler) func() {
			seq := e.ReserveSeq()
			return func() { e.AtArgSeq(t, seq, run, fn) }
		},
	}
}

func heapReserver() reserver {
	e := NewHeap()
	return reserver{
		scheduler: e,
		after:     func(d Time, fn Handler) { e.At(e.Now()+d, fn) },
		reserve: func(t Time, fn Handler) func() {
			e.At(t, fn)
			return func() {}
		},
	}
}

// runReserved drives a random mix of plain events, FIFO deadline lanes and
// triggered reservations through r and returns the firing order. Delays
// include same-cycle events, the ring/overflow boundary (window-1, window,
// window+1) and far deadlines.
//
//   - A lane keeps deadlines at arm time + D in a FIFO and holds one placed
//     event, for its head; the head's handler pops it, may re-arm (a fresh
//     reservation at fire time) and places the next head. D is the same for
//     every deadline of a lane, so its deadlines never decrease.
//   - A triggered reservation schedules a trigger event first and then
//     reserves a target at or after the trigger's time; the trigger places
//     the target. A trigger and target in the same cycle place the target
//     into the bucket that is firing.
func runReserved(t *testing.T, seed int64, r reserver) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	delays := []Time{0, 0, 1, 2, 7, 7, 48, 300, window - 1, window, window + 1, 200_000}
	var trace []string
	id, budget := 0, 400
	record := func(name string) Handler {
		myID := id
		id++
		return func() { trace = append(trace, fmt.Sprintf("%s%d@%d", name, myID, r.Now())) }
	}

	type deadline struct{ place func() }
	type lane struct {
		d      Time
		fifo   []deadline
		placed bool
	}
	var arm func(l *lane)
	placeHead := func(l *lane) {
		if !l.placed && len(l.fifo) > 0 {
			l.placed = true
			l.fifo[0].place()
		}
	}
	var act func()
	arm = func(l *lane) {
		fire := record("L")
		l.fifo = append(l.fifo, deadline{r.reserve(r.Now()+l.d, func() {
			fire()
			l.fifo, l.placed = l.fifo[1:], false
			if budget > 0 && rng.Intn(3) == 0 {
				budget--
				arm(l) // a Watching re-arm: reserved at fire time
			}
			placeHead(l)
			act()
		})})
		placeHead(l)
	}
	lanes := []*lane{{d: window}, {d: window - 1}, {d: 200_000}, {d: 5}}

	// act is what every handler does after recording itself: spawn plain
	// events, arm a lane, or reserve a triggered target.
	act = func() {
		for n := rng.Intn(3); n > 0 && budget > 0; n-- {
			budget--
			switch rng.Intn(4) {
			case 0:
				fire := record("E")
				r.after(delays[rng.Intn(len(delays))], func() { fire(); act() })
			case 1:
				arm(lanes[rng.Intn(len(lanes))])
			default:
				u := delays[rng.Intn(len(delays))]
				d := u + delays[rng.Intn(len(delays))]
				var place func()
				trigger := record("T")
				r.after(u, func() { trigger(); place(); act() })
				fire := record("R")
				place = r.reserve(r.Now()+d, func() { fire(); act() })
			}
		}
	}
	for i := 0; i < 8; i++ {
		fire := record("E")
		r.after(delays[rng.Intn(len(delays))], func() { fire(); act() })
	}
	for r.Step() {
	}
	trace = append(trace, fmt.Sprintf("end@%d fired=%d", r.Now(), r.Fired()))
	return trace
}

// TestReservedSeqMatchesHeapReference: an event placed with AtArgSeq under a
// seq taken earlier with ReserveSeq fires exactly where the heap reference
// fires the same event scheduled at reservation time.
func TestReservedSeqMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cal := runReserved(t, seed, calendarReserver())
		ref := runReserved(t, seed, heapReserver())
		if len(cal) != len(ref) {
			t.Fatalf("seed %d: trace lengths differ: calendar %d vs heap %d", seed, len(cal), len(ref))
		}
		for i := range cal {
			if cal[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at %d: calendar %q vs heap %q", seed, i, cal[i], ref[i])
			}
		}
	}
}
