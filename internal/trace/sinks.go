package trace

import (
	"io"

	"scalablebulk/internal/msg"
)

// TextSink writes one human-readable line per event, compatible in spirit
// with the old printf trace (cycle gutter, ">"/"<" NoC arrows, "*" protocol
// lines).
type TextSink struct {
	w   io.Writer
	buf []byte
}

// NewText builds a text sink over w.
func NewText(w io.Writer) *TextSink { return &TextSink{w: w} }

// Event implements Sink.
func (s *TextSink) Event(e Event) {
	s.buf = e.AppendText(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// Close implements Sink.
func (s *TextSink) Close() error { return nil }

// JSONLSink writes one deterministic JSON object per line. Same seed ⇒
// byte-identical stream; that contract is what the determinism tests check.
type JSONLSink struct {
	w   io.Writer
	buf []byte
}

// NewJSONL builds a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Event implements Sink.
func (s *JSONLSink) Event(e Event) {
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// Close implements Sink.
func (s *JSONLSink) Close() error { return nil }

// Ring is the flight recorder: a fixed-size circular buffer that keeps the
// last N events. Pass it (usually behind a Filter) as a run's sink and read
// its Dump after a failure: the moments leading up to it, without paying for
// a full trace.
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing builds a flight recorder keeping the last n events (min 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Event implements Sink.
func (r *Ring) Event(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Close implements Sink.
func (r *Ring) Close() error { return nil }

// Len returns the number of recorded events (≤ capacity).
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Snapshot returns the recorded events, oldest first.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, r.Len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Dump renders the recorded events as text lines, oldest first.
func (r *Ring) Dump() []string {
	evs := r.Snapshot()
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	buf := make([]byte, 0, 96)
	for i := range evs {
		buf = evs[i].AppendText(buf[:0])
		out[i] = string(buf)
	}
	return out
}

// Filter passes through only matching events. It drops read-path message
// events unless Reads is set; its other zero-value fields match everything:
// Core < 0 or unset via NewFilter, nil Kinds, nil Chunk.
type Filter struct {
	Next Sink
	// Reads keeps read-path NoC traffic (msg.Kind.ReadPath()), by far the
	// most numerous messages in a run.
	Reads bool
	// Core keeps events touching this tile (Node, message endpoint, or the
	// subject chunk's owner); -1 keeps all.
	Core int
	// Kinds keeps only listed kinds when non-nil.
	Kinds map[Kind]bool
	// Chunk keeps events about this chunk (Tag or Other) when non-nil.
	Chunk *msg.CTag
}

// NewFilter wraps next with a filter that drops only read-path messages.
func NewFilter(next Sink) *Filter { return &Filter{Next: next, Core: -1} }

// Event implements Sink.
func (f *Filter) Event(e Event) {
	if !f.Reads && e.MsgKind.ReadPath() {
		return
	}
	if f.Core >= 0 && e.Node != f.Core && e.Tag.Proc != f.Core {
		switch e.Kind {
		case KSend, KDeliver, KFaultDelay, KFaultDup, KFaultRetransmit, KFaultHot:
			if e.Src != f.Core && e.Dst != f.Core {
				return
			}
		default:
			return
		}
	}
	if f.Kinds != nil && !f.Kinds[e.Kind] {
		return
	}
	if f.Chunk != nil && e.Tag != *f.Chunk && !(e.HasOther && e.Other == *f.Chunk) {
		return
	}
	f.Next.Event(e)
}

// Close implements Sink.
func (f *Filter) Close() error { return f.Next.Close() }
