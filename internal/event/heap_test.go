package event

import (
	"container/heap"
	"fmt"
)

// HeapEngine is the original container/heap-based scheduler, kept for tests
// only as the reference oracle: the equivalence tests in this package drive
// it and the calendar-queue Engine through identical random schedules and
// assert bit-identical firing order, and BenchmarkEngineHeap keeps the
// calendar queue measured against it. Production code uses Engine.
type HeapEngine struct {
	now   Time
	seq   uint64
	q     heapQueue
	fired uint64
}

type heapItem struct {
	at   Time
	seq  uint64
	fn   Handler
	idx  int
	dead bool
}

type heapQueue []*heapItem

func (q heapQueue) Len() int { return len(q) }

func (q heapQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q heapQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *heapQueue) Push(x any) {
	it := x.(*heapItem)
	it.idx = len(*q)
	*q = append(*q, it)
}

func (q *heapQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// HeapTicket cancels a HeapEngine event.
type HeapTicket struct{ it *heapItem }

// Cancel prevents the event from firing; no-op if already fired/cancelled.
func (t HeapTicket) Cancel() {
	if t.it != nil {
		t.it.dead = true
	}
}

// NewHeap returns a fresh reference engine with the clock at cycle 0.
func NewHeap() *HeapEngine { return &HeapEngine{} }

// Now returns the current simulation time.
func (e *HeapEngine) Now() Time { return e.now }

// Fired returns the total number of events that have fired.
func (e *HeapEngine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events (cancelled included).
func (e *HeapEngine) Pending() int { return len(e.q) }

// At schedules fn to run at absolute time t.
func (e *HeapEngine) At(t Time, fn Handler) HeapTicket {
	if t < e.now {
		panic(fmt.Sprintf("event: schedule at %d before now %d", t, e.now))
	}
	it := &heapItem{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.q, it)
	return HeapTicket{it}
}

// Step fires the single earliest pending event and advances the clock.
func (e *HeapEngine) Step() bool {
	for len(e.q) > 0 {
		it := heap.Pop(&e.q).(*heapItem)
		if it.dead {
			continue
		}
		e.now = it.at
		e.fired++
		it.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *HeapEngine) Run() {
	for e.Step() {
	}
}
