package system_test

import (
	"fmt"
	"testing"

	"scalablebulk/internal/fault"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/sig"
	"scalablebulk/internal/system"
	"scalablebulk/internal/workload"
)

// TestSignatureSnapshotsImmutable is the run-level oracle for signature
// sharing: messages point at one snapshot per chunk execution instead of
// carrying copies, which is only sound if nothing writes to a snapshot once
// it is sent. Every signature a message carries is recorded at its first
// send; a later send of the same pointer, and the end of the run, must see
// the recorded value.
func TestSignatureSnapshotsImmutable(t *testing.T) {
	type point struct {
		src, proto, faults string
	}
	var points []point
	for _, proto := range []string{"ScalableBulk", "TCC", "SEQ", "BulkSC"} {
		for _, src := range []string{"zipf", "convoy", "FFT"} {
			points = append(points, point{src, proto, ""})
		}
		points = append(points, point{"zipf", proto, "dup"})
	}
	for _, pt := range points {
		pt := pt
		t.Run(fmt.Sprintf("%s/%s/%s", pt.src, pt.proto, pt.faults), func(t *testing.T) {
			t.Parallel()
			cfg := system.DefaultConfig(32, pt.proto)
			cfg.ChunksPerCore = 4
			cfg.Seed = 1
			prof, ok := workload.ByName(pt.src)
			if !ok {
				prof, _ = workload.SourceProfile(pt.src)
				cfg.Workload = pt.src
			}
			if pt.faults != "" {
				p, err := fault.ByName(pt.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = p
			}
			m, err := system.Build(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[*sig.Sig]sig.Sig{}
			carried := 0
			record := func(m *msg.Msg, s *sig.Sig) {
				if s == nil {
					return
				}
				carried++
				if v, ok := seen[s]; !ok {
					seen[s] = *s
				} else if v != *s {
					t.Fatalf("%s: carries a snapshot written to since its first send", m)
				}
			}
			m.Net.OnSend = func(mm *msg.Msg) {
				record(mm, mm.RSig)
				record(mm, mm.WSig)
			}
			m.Start()
			for !m.AllDone() {
				if !m.Eng.Step() {
					t.Fatal("event queue drained before every chunk committed")
				}
			}
			if _, err := m.Finish(); err != nil {
				t.Fatal(err)
			}
			if pt.proto == "TCC" {
				// Scalable TCC invalidates line by line: no signatures.
				if carried != 0 {
					t.Fatalf("TCC messages carried %d signatures", carried)
				}
			} else if carried == 0 || len(seen) == carried {
				t.Fatalf("%d signatures carried, %d distinct: expected snapshots shared between messages", carried, len(seen))
			}
			for s, v := range seen {
				if *s != v {
					t.Fatalf("a snapshot changed after it was sent (%d snapshots, %d carried)", len(seen), carried)
				}
			}
			var none msg.Msg
			if !none.R().Empty() || !none.W().Empty() {
				t.Fatal("the shared empty signature was written to")
			}
		})
	}
}
