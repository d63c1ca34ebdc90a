package system_test

import (
	"errors"
	"fmt"
	"testing"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/event"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/system"
	"scalablebulk/internal/workload"
)

// TestCycleBudgetIsACutoff: a run is deterministic, so Config.MaxCycles only
// decides whether it finishes, never what it measures. Any budget that covers
// the clean run's cycles reproduces its fingerprint byte for byte, and a
// budget short of it fails as a budget-exhausted deadlock.
func TestCycleBudgetIsACutoff(t *testing.T) {
	prof, _ := workload.ByName("Radix")
	for _, protocol := range system.Protocols {
		for _, profile := range []string{"off", "chaos", "loss", "jitter"} {
			t.Run(fmt.Sprintf("%s/%s", protocol, profile), func(t *testing.T) {
				cfg := system.DefaultConfig(8, protocol)
				cfg.ChunksPerCore = 4
				cfg.Seed = 3
				p, err := fault.ByName(profile)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = p

				clean, err := system.Run(prof, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := scalablebulk.ResultFingerprint(clean)

				for _, budget := range []event.Time{clean.Cycles, 16 * clean.Cycles} {
					bounded := cfg
					bounded.MaxCycles = budget
					res, err := system.Run(prof, bounded)
					if err != nil {
						t.Fatalf("MaxCycles=%d (clean run %d cycles): %v", budget, clean.Cycles, err)
					}
					if got := scalablebulk.ResultFingerprint(res); got != want {
						t.Errorf("MaxCycles=%d changed the result:\n got %s\nwant %s", budget, got, want)
					}
				}

				short := cfg
				short.MaxCycles = clean.Cycles / 2
				_, err = system.Run(prof, short)
				var de *system.DeadlockError
				if !errors.As(err, &de) || !de.BudgetExhausted {
					t.Fatalf("MaxCycles=%d: want a budget-exhausted *DeadlockError, got %v", short.MaxCycles, err)
				}
				if !errors.Is(err, system.ErrDeadlock) {
					t.Errorf("budget abort does not match ErrDeadlock: %v", err)
				}
			})
		}
	}
}
