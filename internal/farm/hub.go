package farm

import (
	"slices"
	"sync"
	"time"
)

// eventHub is the server's live event spine: it stamps every Event with a
// monotonic seq and wall-clock time, keeps a bounded in-memory ring for SSE
// resume (Last-Event-ID), and wakes subscribed streams. Subscribers never
// receive events over channels — they re-read the ring by seq, so a slow
// consumer can never make the hub drop or block; it just catches up (or
// takes a snapshot when the ring has already evicted its resume point).
type eventHub struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event // ring[i] holds seq (minSeq+i); append-only window
	cap  int
	subs map[chan struct{}]struct{}
}

func newEventHub(capacity int) *eventHub {
	if capacity <= 0 {
		capacity = 8192
	}
	return &eventHub{cap: capacity, subs: map[chan struct{}]struct{}{}}
}

// emit stamps and publishes one event, returning it with seq and time set.
func (h *eventHub) emit(e Event) Event {
	h.mu.Lock()
	h.seq++
	e.Seq = h.seq
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	h.ring = append(h.ring, e)
	if len(h.ring) > h.cap {
		h.ring = h.ring[len(h.ring)-h.cap:]
	}
	subs := make([]chan struct{}, 0, len(h.subs))
	for ch := range h.subs {
		subs = append(subs, ch)
	}
	h.mu.Unlock()

	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default: // already signaled; the subscriber will re-read the ring
		}
	}
	return e
}

// subscribe registers a wakeup channel (capacity 1) the hub pokes on every
// emit. unsubscribe with the returned func.
func (h *eventHub) subscribe() (chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// since returns the retained events with seq > after, plus gapped=true
// when the caller cannot be caught up by replay — the signal to send a
// snapshot instead of pretending the stream is contiguous. That is
// when the ring has already evicted events the caller never saw (its resume
// point predates the window), or when the resume point is above the newest
// seq: seqs restart at 1 with each server process, so such a point comes
// from an earlier run and the caller has seen none of this run's events.
func (h *eventHub) since(after uint64) (evs []Event, gapped bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after > h.seq {
		return nil, true
	}
	minSeq := h.seq - uint64(len(h.ring)) + 1 // seq of ring[0]
	gapped = after+1 < minSeq
	for _, e := range h.ring {
		if e.Seq > after {
			evs = append(evs, e)
		}
	}
	return evs, gapped
}

// last returns the newest seq issued.
func (h *eventHub) last() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// tail returns the newest n retained events (oldest first).
func (h *eventHub) tail(n int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.ring[max(len(h.ring)-n, 0):])
}
