package kernel

// AckSet is duplicate-safe ack accounting for one commit attempt. Under
// fault injection the network can duplicate any ack, and a bare counter
// would complete (or underflow) an attempt before every responder actually
// answered — the bug class each protocol previously guarded against with its
// own map-plus-counter pair. The key type identifies one responder: a node
// ID for whole-node acks, a composite for per-line acks.
//
// The zero value is ready to use; the set allocates lazily so idle entries
// stay allocation-free.
type AckSet[K comparable] struct {
	expected int
	seen     map[K]bool
}

// Expect adds n responders to wait for (it accumulates, for protocols that
// discover responders incrementally).
func (a *AckSet[K]) Expect(n int) { a.expected += n }

// Ack records one responder's ack; it reports false for a duplicate, which
// the caller must discard without re-counting.
func (a *AckSet[K]) Ack(k K) bool {
	if a.seen[k] {
		return false
	}
	if a.seen == nil {
		a.seen = make(map[K]bool)
	}
	a.seen[k] = true
	return true
}

// Count returns how many distinct responders acked.
func (a *AckSet[K]) Count() int { return len(a.seen) }

// Outstanding returns expected minus acked. A negative value means an ack
// arrived from a responder that was never expected — a protocol bug the
// caller may assert on.
func (a *AckSet[K]) Outstanding() int { return a.expected - len(a.seen) }

// Done reports whether every expected responder acked.
func (a *AckSet[K]) Done() bool { return a.Outstanding() <= 0 }

// Reset empties the set for reuse, keeping its storage.
func (a *AckSet[K]) Reset() {
	a.expected = 0
	clear(a.seen)
}
