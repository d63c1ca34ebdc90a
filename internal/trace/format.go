package trace

import "strconv"

// appendTile renders the tile half a la the old printf trace: "D5" for the
// directory module, "P3" for the processor.
func (e *Event) appendTile(b []byte) []byte {
	if e.Dir {
		b = append(b, 'D')
	} else {
		b = append(b, 'P')
	}
	return strconv.AppendInt(b, int64(e.Node), 10)
}

func appendTag(b []byte, proc int, seq uint64) []byte {
	b = append(b, 'P')
	b = strconv.AppendInt(b, int64(proc), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, seq, 10)
}

// AppendText renders the event as one human-readable line (no trailing
// newline), in the spirit of the old printf trace: a "[  cycle]" gutter,
// then ">"/"<" for NoC send/deliver, "!" for faults, "*" for protocol
// lifecycle events.
func (e *Event) AppendText(b []byte) []byte {
	b = append(b, '[')
	n := len(b)
	b = strconv.AppendUint(b, uint64(e.T), 10)
	for len(b)-n < 7 { // right-align the cycle like the old "%7d"
		b = append(b, 0)
		copy(b[n+1:], b[n:])
		b[n] = ' '
	}
	b = append(b, "] "...)

	switch e.Kind {
	case KSend, KDeliver, KFaultDelay, KFaultDup, KFaultRetransmit, KFaultHot:
		switch e.Kind {
		case KSend:
			b = append(b, "> "...)
		case KDeliver:
			b = append(b, "< "...)
		default:
			b = append(b, "! "...)
			b = append(b, e.Kind.String()...)
			b = append(b, ' ')
		}
		b = append(b, e.MsgKind.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.Src), 10)
		b = append(b, "->"...)
		b = strconv.AppendInt(b, int64(e.Dst), 10)
		b = append(b, ' ')
		b = appendTag(b, e.Tag.Proc, e.Tag.Seq)
		return b
	}

	b = append(b, "* "...)
	b = e.appendTile(b)
	b = append(b, ' ')
	b = append(b, e.Kind.String()...)
	if e.Kind.Span() {
		if e.Phase == PhaseBegin {
			b = append(b, " begin"...)
		} else {
			b = append(b, " end"...)
		}
	}
	b = append(b, ' ')
	b = appendTag(b, e.Tag.Proc, e.Tag.Seq)
	b = append(b, " try="...)
	b = strconv.AppendInt(b, int64(e.Try), 10)
	if e.Kind == KCommit && e.Phase == PhaseEnd {
		if e.OK {
			b = append(b, " ok"...)
		} else {
			b = append(b, " fail"...)
		}
	}
	if e.Cause != CauseNone {
		b = append(b, " cause="...)
		b = append(b, e.Cause.String()...)
	}
	if e.HasOther {
		b = append(b, " by "...)
		b = appendTag(b, e.Other.Proc, e.Other.Seq)
	}
	return b
}

// AppendJSON renders the event as one deterministic JSON object (no trailing
// newline). Field order and formatting are fixed so that two runs of the
// same seed produce byte-identical JSONL streams — the trace determinism
// contract.
func (e *Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendUint(b, uint64(e.T), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","ph":"`...)
	b = append(b, e.Phase.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"side":"`...)
	if e.Dir {
		b = append(b, "dir"...)
	} else {
		b = append(b, "core"...)
	}
	b = append(b, `","tag":"`...)
	b = appendTag(b, e.Tag.Proc, e.Tag.Seq)
	b = append(b, `","try":`...)
	b = strconv.AppendInt(b, int64(e.Try), 10)
	if e.Kind == KCommit && e.Phase == PhaseEnd {
		if e.OK {
			b = append(b, `,"ok":true`...)
		} else {
			b = append(b, `,"ok":false`...)
		}
	}
	if e.Cause != CauseNone {
		b = append(b, `,"cause":"`...)
		b = append(b, e.Cause.String()...)
		b = append(b, '"')
	}
	if e.HasOther {
		b = append(b, `,"other":"`...)
		b = appendTag(b, e.Other.Proc, e.Other.Seq)
		b = append(b, '"')
	}
	switch e.Kind {
	case KSend, KDeliver, KFaultDelay, KFaultDup, KFaultRetransmit, KFaultHot:
		b = append(b, `,"msg":"`...)
		b = append(b, e.MsgKind.String()...)
		b = append(b, `","src":`...)
		b = strconv.AppendInt(b, int64(e.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(e.Dst), 10)
	}
	b = append(b, '}')
	return b
}

// String renders the event as its text line (testing convenience).
func (e Event) String() string { return string(e.AppendText(nil)) }
