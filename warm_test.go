package scalablebulk

// Shared warm-up tests: a sweep that restores one warm image per
// (application, machine size) unit gives every point the fingerprint of a
// standalone run — also when a unit's first point panics, the sweep is
// canceled mid-unit, or some points come from the journal or the cache.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// warmPoints is the figure sweep's shape on apps: each under every protocol
// at 32 and 64 cores, plus the 1-core baseline.
func warmPoints(apps ...string) []Point {
	var pts []Point
	for _, app := range apps {
		pts = append(pts, Point{app, ProtoScalableBulk, 1})
		for _, protocol := range Protocols {
			for _, cores := range []int{32, 64} {
				pts = append(pts, Point{app, protocol, cores})
			}
		}
	}
	return pts
}

// standalone runs p the way a Session of spec would, through RunContext.
func standalone(t *testing.T, p Point, spec SweepSpec) string {
	t.Helper()
	prof, cfg, err := spec.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), prof, cfg)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	return ResultFingerprint(res)
}

func TestSweepSharedWarmupMatchesRun(t *testing.T) {
	const seed = 3
	// zipf is an adversarial source that sweeps under its own name.
	pts := warmPoints("Radix", "Ocean", "zipf")
	for _, tc := range []struct {
		name string
		spec SweepSpec
	}{
		{"plain", SweepSpec{ChunksPerCore: detChunks, Seed: seed}},
		// What sbsoak -check -faults chaos -faultseed 5 sweeps.
		{"check-chaos", SweepSpec{ChunksPerCore: detChunks, Seed: seed,
			Faults: "chaos", FaultSeed: 5, Check: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[Point]string{}
			for _, p := range pts {
				want[p] = standalone(t, p, tc.spec)
			}
			for _, par := range []int{1, 2, 4} {
				s := NewSession(detChunks, seed, nil)
				s.SweepSpec = tc.spec
				if err := s.SweepContext(context.Background(), pts, par).Err(); err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				for _, p := range pts {
					res, err := s.Result(p.App, p.Protocol, p.Cores)
					if err != nil {
						t.Fatal(err)
					}
					if got := ResultFingerprint(res); got != want[p] {
						t.Errorf("parallelism %d: %v differs from a standalone run", par, p)
					}
				}
				// Three applications × two machine sizes, four protocols
				// each: one point per unit warms up, the other three restore.
				if n := s.warmRestores.Load(); n != 18 {
					t.Errorf("parallelism %d: %d points restored a warm image, want 18", par, n)
				}
			}
		})
	}
}

// sweepWithin runs SweepContext and fails the test if it has not returned
// within a minute.
func sweepWithin(t *testing.T, s *Session, ctx context.Context, pts []Point, par int) *SweepOutcome {
	t.Helper()
	done := make(chan *SweepOutcome, 1)
	go func() { done <- s.SweepContext(ctx, pts, par) }()
	select {
	case out := <-done:
		return out
	case <-time.After(time.Minute):
		t.Fatal("sweep blocked")
		return nil
	}
}

func TestSweepWarmUnits(t *testing.T) {
	const seed = 4
	radix32 := []Point{
		{"Radix", ProtoScalableBulk, 32}, {"Radix", ProtoTCC, 32},
		{"Radix", ProtoSEQ, 32}, {"Radix", ProtoBulkSC, 32},
	}
	// matches fails the test unless each of pts has the fingerprint of a
	// standalone run.
	matches := func(t *testing.T, s *Session, pts []Point) {
		t.Helper()
		for _, p := range pts {
			res, err := s.Result(p.App, p.Protocol, p.Cores)
			if err != nil {
				t.Fatal(err)
			}
			if ResultFingerprint(res) != standalone(t, p, s.SweepSpec) {
				t.Errorf("%v differs from a standalone run", p)
			}
		}
	}

	t.Run("first-point-panics", func(t *testing.T) {
		s := NewSession(detChunks, seed, nil)
		s.testPointHook = func(p Point, _ *Config) {
			if p == radix32[0] {
				panic("injected first-point panic")
			}
		}
		out := sweepWithin(t, s, context.Background(), radix32, 1)
		if out.Completed != len(radix32)-1 || len(out.Failures) != 1 {
			t.Fatalf("completed %d, failures %+v", out.Completed, out.Failures)
		}
		var ce *CrashError
		if !errors.As(out.Failures[0].Err, &ce) {
			t.Fatalf("failure is %T, want *CrashError", out.Failures[0].Err)
		}
		// The first point built nothing: the next one warms up and the
		// last two restore its image.
		if n := s.warmRestores.Load(); n != 2 {
			t.Errorf("%d points restored a warm image, want 2", n)
		}
		matches(t, s, radix32[1:])
	})

	t.Run("canceled-mid-unit", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel as the third point of the Radix-32 unit starts, with the
		// unit's image taken and restored once.
		s := NewSession(detChunks, seed, nil)
		s.testPointHook = func(p Point, _ *Config) {
			if p == radix32[2] {
				cancel()
			}
		}
		pts := warmPoints("Radix", "Ocean")
		out := sweepWithin(t, s, ctx, pts, 2)
		if !out.Aborted || len(out.Failures) != 0 || out.Completed >= len(pts) {
			t.Fatalf("aborted=%t completed=%d failures=%+v, want a clean abort",
				out.Aborted, out.Completed, out.Failures)
		}
	})

	t.Run("journal-and-cache", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		j1, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		s1 := NewSession(detChunks, seed, nil)
		s1.UseJournal(j1)
		if err := s1.SweepContext(context.Background(), radix32[:1], 1).Err(); err != nil {
			t.Fatal(err)
		}
		j1.Close()

		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		s := NewSession(detChunks, seed, nil)
		s.UseJournal(j)
		p := radix32[1]
		if _, err := s.Result(p.App, p.Protocol, p.Cores); err != nil {
			t.Fatal(err)
		}
		// The first point restores from the journal and the second is
		// cached, so the third warms up and the fourth restores its image.
		out := sweepWithin(t, s, context.Background(), radix32, 2)
		if err := out.Err(); err != nil {
			t.Fatal(err)
		}
		if out.Restored != 1 {
			t.Errorf("restored %d points from the journal, want 1", out.Restored)
		}
		if n := s.warmRestores.Load(); n != 1 {
			t.Errorf("%d points restored a warm image, want 1", n)
		}
		matches(t, s, radix32[2:])
	})
}
