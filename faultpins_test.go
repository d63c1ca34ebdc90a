package scalablebulk

// Fault-run fingerprint pins. The goldens are fault-free runs, and a
// fault-free run never fires the commit-stall watchdog, so they cannot see a
// change in when or in what order watchdog deadlines fire. These pins run
// every protocol under the loss and chaos fault profiles with a deadline
// short enough that the watchdog fails attempts, and compare the whole
// ResultFingerprint against a pinned copy.
//
// Regenerate (only when a change is intended to move results) with:
//
//	go test -run TestFaultRunPins -update .

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"scalablebulk/internal/bulksc"
	"scalablebulk/internal/core"
	"scalablebulk/internal/event"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/seqpro"
	"scalablebulk/internal/system"
	"scalablebulk/internal/tcc"
)

// faultPinDeadline is the CommitDeadline of the pinned fault runs: below the
// slowest attempts' latency under loss and chaos, so the watchdog fires.
const faultPinDeadline event.Time = 900

// withDeadline returns proto's default option block with CommitDeadline set.
func withDeadline(t *testing.T, proto string, d event.Time) any {
	desc, ok := system.LookupProtocol(proto)
	if !ok {
		t.Fatalf("unknown protocol %q", proto)
	}
	switch o := desc.DefaultOptions.(type) {
	case core.Config:
		o.CommitDeadline = d
		return o
	case tcc.Config:
		o.CommitDeadline = d
		return o
	case seqpro.Config:
		o.CommitDeadline = d
		return o
	case bulksc.Config:
		o.CommitDeadline = d
		return o
	default:
		t.Fatalf("%s: no CommitDeadline in option block %T", proto, o)
		return nil
	}
}

func TestFaultRunPins(t *testing.T) {
	const cores, seed = 16, 7
	prof, ok := AppByName("Barnes")
	if !ok {
		t.Fatal("no Barnes profile")
	}
	fired := map[string]uint64{}
	for _, proto := range goldenPoints() {
		for _, fp := range []string{"loss", "chaos"} {
			t.Run(proto+"/"+fp, func(t *testing.T) {
				cfg := DefaultConfig(cores, proto)
				cfg.Seed = seed
				cfg.ProtoOptions = withDeadline(t, proto, faultPinDeadline)
				var err error
				if cfg.Faults, err = fault.ByName(fp); err != nil {
					t.Fatal(err)
				}
				r, err := RunScaled(prof, cfg, 64*detChunks)
				if err != nil {
					t.Fatal(err)
				}
				fired[proto] += r.ProtoStats["fail_watchdog"]
				got := ResultFingerprint(r) + fmt.Sprintf("fail_watchdog=%d\n", r.ProtoStats["fail_watchdog"])
				p := filepath.Join("testdata", "faultpins", fmt.Sprintf("%s-%s.txt", proto, fp))
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(p, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(p)
				if err != nil {
					t.Fatalf("missing pin (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("fault run drifted from pin %s:\n--- want\n%s--- got\n%s", p, want, got)
				}
			})
		}
	}
	// The pins only guard watchdog order if the watchdog actually fired.
	if fired[ProtoScalableBulk] == 0 {
		t.Errorf("ScalableBulk fault runs never fired the watchdog (deadline %d)", faultPinDeadline)
	}
	baseline := false
	for _, proto := range []string{ProtoTCC, ProtoSEQ, ProtoBulkSC} {
		baseline = baseline || fired[proto] > 0
	}
	if !baseline {
		t.Errorf("no baseline fault run fired the watchdog (deadline %d): %v", faultPinDeadline, fired)
	}
}
