package system

import (
	"bytes"
	"testing"

	"scalablebulk/internal/event"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/trace"
	"scalablebulk/internal/workload"
)

// collectSink records every event in order for invariant checks.
type collectSink struct{ evs []trace.Event }

func (s *collectSink) Event(e trace.Event) { s.evs = append(s.evs, e) }
func (s *collectSink) Close() error        { return nil }

// TestTraceDeterministic is the trace half of the determinism contract: the
// same seed must produce a byte-identical JSONL event stream, run to run,
// under every protocol.
func TestTraceDeterministic(t *testing.T) {
	prof, _ := workload.ByName("Barnes")
	for _, protocol := range Protocols {
		t.Run(protocol, func(t *testing.T) {
			stream := func() []byte {
				var buf bytes.Buffer
				cfg := quickCfg(8, protocol)
				cfg.ChunksPerCore = 4
				cfg.TraceSink = trace.NewJSONL(&buf)
				mustRun(t, prof, cfg)
				return buf.Bytes()
			}
			a, b := stream(), stream()
			if len(a) == 0 {
				t.Fatal("empty trace stream")
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}

// TestTraceDoesNotPerturbResults holds the observability layer to its
// zero-interference contract: attaching a raw sink, which sees every event
// including read traffic, must not change a single deterministic measurement.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	prof, _ := workload.ByName("FFT")
	for _, protocol := range Protocols {
		plain := mustRun(t, prof, quickCfg(8, protocol))
		cfg := quickCfg(8, protocol)
		cfg.TraceSink = &collectSink{}
		traced := mustRun(t, prof, cfg)
		if plain.Cycles != traced.Cycles ||
			plain.Traffic.Messages != traced.Traffic.Messages ||
			plain.ChunksCommitted != traced.ChunksCommitted ||
			plain.Squashes != traced.Squashes {
			t.Fatalf("%s: tracing perturbed the run: %d/%d/%d/%d vs %d/%d/%d/%d",
				protocol, plain.Cycles, plain.Traffic.Messages, plain.ChunksCommitted, plain.Squashes,
				traced.Cycles, traced.Traffic.Messages, traced.ChunksCommitted, traced.Squashes)
		}
	}
}

type spanKey struct {
	node int
	tag  msg.CTag
	try  int
}

// TestTraceSpanBalance checks the span invariants every consumer relies on:
// exec spans nest 0/1 per core and close by run end; commit and hold spans
// begin before they end, never end twice, and all close in a run that
// commits every chunk; exactly one successful commit end per committed
// chunk.
func TestTraceSpanBalance(t *testing.T) {
	prof, _ := workload.ByName("Barnes")
	for _, protocol := range Protocols {
		t.Run(protocol, func(t *testing.T) {
			sink := &collectSink{}
			cfg := quickCfg(8, protocol)
			cfg.ChunksPerCore = 4
			cfg.TraceSink = sink
			res := mustRun(t, prof, cfg)

			execDepth := map[int]int{}
			commits := map[spanKey]int{}
			holds := map[spanKey]int{}
			var commitOK uint64
			for i, e := range sink.evs {
				switch e.Kind {
				case trace.KExec:
					switch e.Phase {
					case trace.PhaseBegin:
						execDepth[e.Node]++
						if execDepth[e.Node] > 1 {
							t.Fatalf("event %d: nested exec span on core %d", i, e.Node)
						}
					case trace.PhaseEnd:
						execDepth[e.Node]--
						if execDepth[e.Node] < 0 {
							t.Fatalf("event %d: exec end without begin on core %d", i, e.Node)
						}
					}
				case trace.KCommit:
					k := spanKey{e.Node, e.Tag, e.Try}
					switch e.Phase {
					case trace.PhaseBegin:
						commits[k]++
						if commits[k] > 1 {
							t.Fatalf("event %d: commit attempt %v begun twice", i, k)
						}
					case trace.PhaseEnd:
						commits[k]--
						if commits[k] < 0 {
							t.Fatalf("event %d: commit end without begin for %v", i, k)
						}
						if e.OK {
							commitOK++
						}
					}
				case trace.KHold:
					k := spanKey{e.Node, e.Tag, e.Try}
					switch e.Phase {
					case trace.PhaseBegin:
						holds[k]++
						if holds[k] > 1 {
							t.Fatalf("event %d: hold span %v begun twice", i, k)
						}
					case trace.PhaseEnd:
						holds[k]--
						if holds[k] < 0 {
							t.Fatalf("event %d: hold end without begin for %v", i, k)
						}
					}
				}
			}
			for node, d := range execDepth {
				if d != 0 {
					t.Errorf("core %d: exec span still open at run end", node)
				}
			}
			for k, d := range commits {
				if d != 0 {
					t.Errorf("commit span %v still open at run end", k)
				}
			}
			// Hold spans may stay open at run end: the engine stops the
			// moment the last chunk commits, before its release messages
			// drain (Perfetto's Close balances those at render time). But
			// every open hold must belong to that final wave — any earlier
			// chunk's hold still open is a leak.
			lastCycle := sink.evs[len(sink.evs)-1].T
			for k, d := range holds {
				if d != 0 {
					var begun event.Time
					for _, e := range sink.evs {
						if e.Kind == trace.KHold && e.Phase == trace.PhaseBegin &&
							k == (spanKey{e.Node, e.Tag, e.Try}) {
							begun = e.T
						}
					}
					if lastCycle-begun > 2000 {
						t.Errorf("hold span %v open since cycle %d (run ended at %d): leaked",
							k, begun, lastCycle)
					}
				}
			}
			if commitOK != res.ChunksCommitted {
				t.Errorf("successful commit ends = %d, want %d (one per committed chunk)",
					commitOK, res.ChunksCommitted)
			}
		})
	}
}

// TestPerfettoExportValid runs the full pipeline into the Perfetto exporter
// and validates the Chrome trace-event schema — the same check the CI
// trace-smoke job performs via `sbsim -trace trace.json`.
func TestPerfettoExportValid(t *testing.T) {
	prof, _ := workload.ByName("Barnes")
	var buf bytes.Buffer
	p := trace.NewPerfetto(&buf)
	cfg := quickCfg(8, ProtoScalableBulk)
	cfg.ChunksPerCore = 2
	cfg.TraceSink = p
	mustRun(t, prof, cfg)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidatePerfetto(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"core 0"`, `"dir 0"`, "group_formed"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("perfetto output lacks %s", want)
		}
	}
}
