package trace

import (
	"io"
	"sort"
	"strconv"

	"scalablebulk/internal/msg"
)

// Perfetto streams Chrome trace-event JSON (the legacy JSON format Perfetto
// and chrome://tracing both load), one event at a time.
//
// Track model: pid 1 is the "cores" process and pid 2 the "directories"
// process, with one thread per tile on each side; a track's thread_name
// record is written when its first event arrives. Execution spans are
// synchronous B/E slices on their core's thread (a core executes one chunk
// at a time, so they nest trivially). Commit attempts and directory holds
// are nestable async b/e pairs keyed by chunk attempt — commit attempts
// overlap the next chunk's execution, and BulkSC's arbiter holds overlap
// each other, so synchronous slices would violate Chrome's nesting rules.
// Cycles map 1:1 to microseconds (ts is in μs).
type Perfetto struct {
	w   io.Writer
	buf []byte
	err error // first write error, returned by Close
	// syncOpen holds every track seen so far with its open B depth;
	// asyncOpen the begin event of each open b span. Close balances both:
	// runs stop the moment the workload finishes, legitimately leaving holds
	// (and the last chunks' attempts) open.
	syncOpen  map[track2]int
	asyncOpen map[spanKey]Event
	maxT      uint64
}

// perfettoHead opens the document with the two process_name records, so
// every later record starts with a comma.
const perfettoHead = `{"displayTimeUnit":"ms","traceEvents":[` +
	`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"cores"}},` +
	`{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"directories"}}`

// NewPerfetto builds a Perfetto sink over w and writes the document's
// opening; each event is written as it arrives, and the document is
// complete once Close has run.
func NewPerfetto(w io.Writer) *Perfetto {
	p := &Perfetto{w: w, syncOpen: map[track2]int{}, asyncOpen: map[spanKey]Event{}}
	p.buf = append(p.buf, perfettoHead...)
	p.flush()
	return p
}

// Event implements Sink.
func (p *Perfetto) Event(e Event) {
	pid, tid := e.track()
	if _, seen := p.syncOpen[track2{pid, tid}]; !seen {
		p.syncOpen[track2{pid, tid}] = 0
		side := "core "
		if pid == pidDirs {
			side = "dir "
		}
		p.buf = append(p.buf, `,{"ph":"M","pid":`...)
		p.buf = strconv.AppendInt(p.buf, int64(pid), 10)
		p.buf = append(p.buf, `,"tid":`...)
		p.buf = strconv.AppendInt(p.buf, int64(tid), 10)
		p.buf = append(p.buf, `,"name":"thread_name","args":{"name":"`...)
		p.buf = append(p.buf, side...)
		p.buf = strconv.AppendInt(p.buf, int64(tid), 10)
		p.buf = append(p.buf, `"}}`...)
	}
	p.maxT = max(p.maxT, uint64(e.T))
	p.buf = p.renderEvent(p.buf, &e)
	p.flush()
}

func (p *Perfetto) flush() {
	if _, err := p.w.Write(p.buf); err != nil && p.err == nil {
		p.err = err
	}
	p.buf = p.buf[:0]
}

const (
	pidCores = 1
	pidDirs  = 2
)

func (e *Event) track() (pid, tid int) {
	pid = pidCores
	if e.Dir {
		pid = pidDirs
	}
	return pid, e.Node
}

// Close ends every span still open at the last observed cycle — sync spans
// by track (cores then directories, by tile), then async spans by id — and
// ends the document. It returns the first write error.
func (p *Perfetto) Close() error {
	var tracks []track2
	for tr, d := range p.syncOpen {
		if d > 0 {
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	b := p.buf
	for _, tr := range tracks {
		for d := p.syncOpen[tr]; d > 0; d-- {
			b = appendDur(b, "E", tr.pid, tr.tid, p.maxT)
			b = append(b, '}')
		}
	}
	open := make([]Event, 0, len(p.asyncOpen))
	for _, e := range p.asyncOpen {
		open = append(open, e)
	}
	sort.Slice(open, func(i, j int) bool {
		return string(appendSpanID(nil, &open[i])) < string(appendSpanID(nil, &open[j]))
	})
	for i := range open {
		b = appendAsync(b, "e", &open[i], p.maxT)
	}
	p.buf = append(b, "]}\n"...)
	p.flush()
	return p.err
}

// spanKey identifies one chunk attempt's async span: its commit attempt,
// or its hold at one directory module.
type spanKey struct {
	kind Kind
	tag  msg.CTag
	try  int
	node int  // holds only
	dir  bool // holds only
}

func (e *Event) spanKey() spanKey {
	k := spanKey{kind: e.Kind, tag: e.Tag, try: e.Try}
	if e.Kind == KHold {
		k.node, k.dir = e.Node, e.Dir
	}
	return k
}

// appendDur opens one event object, after its separating comma, with the
// common ph/pid/tid/ts fields; the caller appends any extra fields and the
// closing brace.
func appendDur(b []byte, ph string, pid, tid int, ts uint64) []byte {
	b = append(b, `,{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ts, 10)
	return b
}

// appendAsync renders one b or e record of e's async span at cycle ts.
func appendAsync(b []byte, ph string, e *Event, ts uint64) []byte {
	pid, tid := e.track()
	b = appendDur(b, ph, pid, tid, ts)
	b = append(b, `,"cat":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","id":"`...)
	b = appendSpanID(b, e)
	b = append(b, `","name":"`...)
	b = appendSpanName(b, e)
	return append(b, `"}`...)
}

// appendSpanID renders the async-event id of one chunk attempt's span at
// one module: "P3.7/1@D5" — unique per (kind instance), shared between its
// b and e.
func appendSpanID(b []byte, e *Event) []byte {
	b = appendTag(b, e.Tag.Proc, e.Tag.Seq)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(e.Try), 10)
	if e.Kind == KHold {
		b = append(b, '@')
		b = e.appendTile(b)
	}
	return b
}

func appendSpanName(b []byte, e *Event) []byte {
	b = append(b, e.Kind.String()...)
	b = append(b, ' ')
	return appendTag(b, e.Tag.Proc, e.Tag.Seq)
}

func (p *Perfetto) renderEvent(b []byte, e *Event) []byte {
	pid, tid := e.track()
	ts := uint64(e.T)
	switch {
	case e.Kind == KExec:
		tr := track2{pid, tid}
		if e.Phase == PhaseBegin {
			p.syncOpen[tr]++
			b = appendDur(b, "B", pid, tid, ts)
			b = append(b, `,"cat":"exec","name":"`...)
			b = appendSpanName(b, e)
			b = append(b, `"}`...)
		} else {
			if p.syncOpen[tr] == 0 {
				return b // end without begin (trace started mid-span): drop
			}
			p.syncOpen[tr]--
			b = appendDur(b, "E", pid, tid, ts)
			b = append(b, '}')
		}
	case e.Kind == KCommit || e.Kind == KHold:
		k := e.spanKey()
		if e.Phase == PhaseBegin {
			p.asyncOpen[k] = *e
			return appendAsync(b, "b", e, ts)
		}
		if _, ok := p.asyncOpen[k]; !ok {
			return b
		}
		delete(p.asyncOpen, k)
		return appendAsync(b, "e", e, ts)
	default:
		b = appendDur(b, "i", pid, tid, ts)
		b = append(b, `,"s":"t","cat":"`...)
		switch e.Kind {
		case KSend, KDeliver:
			b = append(b, "noc"...)
		case KFaultDelay, KFaultDup, KFaultRetransmit, KFaultHot:
			b = append(b, "fault"...)
		default:
			b = append(b, "lifecycle"...)
		}
		b = append(b, `","name":"`...)
		b = appendInstantName(b, e)
		b = append(b, `"}`...)
	}
	return b
}

type track2 = struct{ pid, tid int }

func appendInstantName(b []byte, e *Event) []byte {
	b = append(b, e.Kind.String()...)
	switch e.Kind {
	case KSend, KDeliver, KFaultDelay, KFaultDup, KFaultRetransmit, KFaultHot:
		b = append(b, ' ')
		b = append(b, e.MsgKind.String()...)
	default:
		b = append(b, ' ')
		b = appendTag(b, e.Tag.Proc, e.Tag.Seq)
		if e.Cause != CauseNone {
			b = append(b, " ("...)
			b = append(b, e.Cause.String()...)
			b = append(b, ')')
		}
		if e.HasOther {
			b = append(b, " by "...)
			b = appendTag(b, e.Other.Proc, e.Other.Seq)
		}
	}
	return b
}
