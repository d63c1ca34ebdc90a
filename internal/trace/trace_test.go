package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
)

// TestNilTracerZeroAllocs is the hot-loop guard: a disabled tracer must not
// allocate on any emission path, or PR 2's calendar-queue gains are lost.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	m := &msg.Msg{Kind: msg.Grab, Src: 1, Dst: 2, Tag: msg.CTag{Proc: 1, Seq: 3}}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(KExec, PhaseBegin, 3, false, m.Tag, 0)
		tr.Instant(KSquash, 3, false, m.Tag, 0)
		tr.Emit(Event{Kind: KCollision, Node: 5, Dir: true, Tag: m.Tag})
		tr.MsgSend(m)
		tr.MsgDeliver(m)
		tr.Fault(KFaultDelay, m)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkNilSink is the same guard in benchmark form; CI runs it once with
// the other internal benchmarks.
func BenchmarkNilSink(b *testing.B) {
	var tr *Tracer
	m := &msg.Msg{Kind: msg.Grab, Src: 1, Dst: 2, Tag: msg.CTag{Proc: 1, Seq: 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(KCommit, PhaseBegin, 3, false, m.Tag, 0)
		tr.MsgSend(m)
		tr.MsgDeliver(m)
	}
}

func testTracer(sink Sink) *Tracer {
	eng := event.New()
	return New(eng, sink)
}

func TestNewNilSinkIsDisabled(t *testing.T) {
	if tr := New(event.New(), nil); tr != nil {
		t.Fatalf("New with nil sink = %v, want nil tracer", tr)
	}
	if (*Tracer)(nil).Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
}

func TestTextAndJSONFormats(t *testing.T) {
	var text, jsonl bytes.Buffer
	tr := testTracer(Multi{NewText(&text), NewJSONL(&jsonl)})
	tag := msg.CTag{Proc: 3, Seq: 7}
	other := msg.CTag{Proc: 4, Seq: 2}
	tr.Span(KCommit, PhaseBegin, 3, false, tag, 1)
	tr.Emit(Event{Kind: KCollision, Node: 5, Dir: true, Tag: tag, Try: 1, Other: other, HasOther: true})
	tr.Emit(Event{Kind: KCommit, Phase: PhaseEnd, Node: 3, Tag: tag, Try: 1, Cause: CauseCollision})
	tr.MsgSend(&msg.Msg{Kind: msg.Grab, Src: 5, Dst: 6, Tag: tag})

	wantText := []string{
		"[      0] * P3 commit begin P3.7 try=1",
		"[      0] * D5 collision P3.7 try=1 by P4.2",
		"[      0] * P3 commit end P3.7 try=1 fail cause=collision",
		"[      0] > g 5->6 P3.7",
	}
	gotText := strings.Split(strings.TrimRight(text.String(), "\n"), "\n")
	if len(gotText) != len(wantText) {
		t.Fatalf("text lines = %d, want %d:\n%s", len(gotText), len(wantText), text.String())
	}
	for i := range wantText {
		if gotText[i] != wantText[i] {
			t.Errorf("text line %d = %q, want %q", i, gotText[i], wantText[i])
		}
	}

	for i, line := range strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("jsonl line %d not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"t", "ev", "ph", "node", "side", "tag", "try"} {
			if _, ok := obj[key]; !ok {
				t.Errorf("jsonl line %d missing %q: %s", i, key, line)
			}
		}
	}
}

func TestReadsGate(t *testing.T) {
	var buf bytes.Buffer
	tr := testTracer(NewText(&buf))
	read := &msg.Msg{Kind: msg.ReadReq, Src: 0, Dst: 1}
	tr.MsgSend(read)
	tr.MsgDeliver(read)
	if buf.Len() != 0 {
		t.Fatalf("read-path traffic leaked through with Reads off:\n%s", buf.String())
	}
	tr.Reads = true
	tr.MsgSend(read)
	tr.MsgDeliver(read)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("Reads on recorded %d events, want 2:\n%s", got, buf.String())
	}
}

func TestRingKeepsLastN(t *testing.T) {
	r := NewRing(4)
	tr := testTracer(r)
	for i := 0; i < 10; i++ {
		tr.Instant(KSquash, i, false, msg.CTag{Proc: i}, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("ring Len = %d, want 4", r.Len())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if want := 6 + i; e.Node != want {
			t.Errorf("snapshot[%d].Node = %d, want %d (oldest-first order)", i, e.Node, want)
		}
	}
	if dump := r.Dump(); len(dump) != 4 {
		t.Errorf("Dump has %d lines, want 4:\n%s", len(dump), strings.Join(dump, "\n"))
	}
}

func TestFilter(t *testing.T) {
	r := NewRing(64)
	f := NewFilter(r)
	f.Core = 3
	tr := testTracer(f)
	tag3 := msg.CTag{Proc: 3, Seq: 1}
	tr.Instant(KSquash, 3, false, tag3, 0)                      // node match
	tr.Instant(KSquash, 5, false, msg.CTag{Proc: 5, Seq: 1}, 0) // no match
	tr.MsgSend(&msg.Msg{Kind: msg.Grab, Src: 3, Dst: 7})        // endpoint match
	tr.MsgSend(&msg.Msg{Kind: msg.Grab, Src: 6, Dst: 7})        // no match
	if r.Len() != 2 {
		t.Fatalf("core filter kept %d events, want 2:\n%s", r.Len(), strings.Join(r.Dump(), "\n"))
	}

	r2 := NewRing(64)
	f2 := NewFilter(r2)
	f2.Kinds = map[Kind]bool{KSquash: true}
	f2.Chunk = &tag3
	tr2 := testTracer(f2)
	tr2.Instant(KSquash, 3, false, tag3, 0)
	tr2.Instant(KCommitDone, 3, false, tag3, 0)                  // kind mismatch
	tr2.Instant(KSquash, 9, false, msg.CTag{Proc: 9, Seq: 2}, 0) // chunk mismatch
	tr2.Emit(Event{Kind: KSquash, Node: 4, Tag: msg.CTag{Proc: 4}, Other: tag3, HasOther: true})
	if r2.Len() != 2 {
		t.Fatalf("kind+chunk filter kept %d events, want 2:\n%s", r2.Len(), strings.Join(r2.Dump(), "\n"))
	}
}

// TestPerfettoValid checks the exporter output against the Chrome
// trace-event schema rules the CI smoke job enforces: a traceEvents array,
// required fields per event, balanced B/E per track and b/e per id.
func TestPerfettoValid(t *testing.T) {
	var buf bytes.Buffer
	p := NewPerfetto(&buf)
	tr := testTracer(p)
	tag := msg.CTag{Proc: 0, Seq: 1}
	tr.Span(KExec, PhaseBegin, 0, false, tag, 0)
	tr.Span(KExec, PhaseEnd, 0, false, tag, 0)
	tr.Span(KCommit, PhaseBegin, 0, false, tag, 0)
	tr.Span(KHold, PhaseBegin, 2, true, tag, 0)
	tr.Instant(KGroupFormed, 2, true, tag, 0)
	tr.Span(KHold, PhaseEnd, 2, true, tag, 0)
	// KCommit deliberately left open: Close must balance it.
	if err := tr.sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerfetto(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("group_formed")) {
		t.Error("instant name missing from output")
	}
}

// TestValidatePerfettoRejectsBadDocs exercises the validator's own failure
// paths on handcrafted documents.
func TestValidatePerfettoRejectsBadDocs(t *testing.T) {
	bad := []string{
		`not json`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":5}]}`,
		`{"traceEvents":[{"ph":"b","pid":1,"tid":0,"ts":5,"cat":"commit"}]}`,
		`{"traceEvents":[{"ph":"B","pid":1,"tid":0,"ts":5,"name":"x"}]}`,
	}
	for i, doc := range bad {
		if err := ValidatePerfetto([]byte(doc)); err == nil {
			t.Errorf("bad doc %d accepted", i)
		}
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v, want %v,true", k.String(), got, ok, k)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted unknown name")
	}
}
