package farm

import (
	"slices"
	"sync"
	"time"
)

// eventHub is the server's live event spine: it stamps every Event with a
// monotonic seq and wall-clock time, keeps a bounded in-memory ring for
// FarmStatus's event tail, and wakes subscribed SSE streams. Subscribers
// never receive events over channels: a wake only tells a stream to re-read
// its sweep's results, so a slow consumer can never make the hub drop or
// block.
type eventHub struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event // the newest cap events, oldest first
	cap  int
	subs map[chan struct{}]struct{}
}

// newEventHub keeps the newest capacity events, which must be positive
// (NewServer passes Options.EventHistory after withDefaults).
func newEventHub(capacity int) *eventHub {
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
		default: // already signaled; the subscriber has yet to re-read
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
