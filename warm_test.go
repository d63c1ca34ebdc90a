package scalablebulk

// Shared warm-up tests: a sweep that restores one warm image per
// (application, machine size) group gives every point the fingerprint of a
// standalone run, and the Session holds no image once the sweep returns —
// also when a group's first point panics, the sweep is canceled mid-group,
// or some points come from the journal or the cache.

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"scalablebulk/internal/fault"
)

// warmPoints is the figure sweep's shape on two applications: each under
// every protocol at 32 and 64 cores, plus the 1-core baseline.
func warmPoints() []Point {
	var pts []Point
	for _, app := range []string{"Radix", "Ocean"} {
		pts = append(pts, Point{app, ProtoScalableBulk, 1})
		for _, protocol := range Protocols {
			for _, cores := range []int{32, 64} {
				pts = append(pts, Point{app, protocol, cores})
			}
		}
	}
	return pts
}

// soakConfigure is what sbsoak's Configure does under -check -faults chaos.
func soakConfigure(t *testing.T) func(*Config) {
	prof, err := fault.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	return func(cfg *Config) {
		cfg.Faults = prof
		cfg.FaultSeed = 5
		cfg.Check = true
	}
}

// standalone runs p the way a Session would, through RunContext.
func standalone(t *testing.T, p Point, seed int64, configure func(*Config)) string {
	t.Helper()
	cfg := SweepPointConfig(p, detChunks, seed)
	if configure != nil {
		configure(&cfg)
	}
	prof, err := ResolvePointProfile(p.App, &cfg)
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
	pts := warmPoints()
	for _, tc := range []struct {
		name      string
		configure func(*Config)
	}{
		{"plain", nil},
		{"check-chaos", soakConfigure(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[Point]string{}
			for _, p := range pts {
				want[p] = standalone(t, p, seed, tc.configure)
			}
			for _, par := range []int{2, 4} {
				s := NewSession(detChunks, seed, nil)
				s.Configure = tc.configure
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
				// Two applications × two machine sizes, four protocols each:
				// one point per group warms up, the other three restore.
				if n := s.warmRestores.Load(); n != 12 {
					t.Errorf("parallelism %d: %d points restored a warm image, want 12", par, n)
				}
				if n := s.warmImages.Load(); n != 0 {
					t.Errorf("parallelism %d: session holds %d warm images after the sweep", par, n)
				}
			}
		})
	}
}

// sweepWithin runs SweepContext and fails the test if it has not returned
// within a minute: no point may wait forever on a group's image.
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

func TestSweepReleasesWarmImages(t *testing.T) {
	const seed = 4
	radix32 := []Point{
		{"Radix", ProtoScalableBulk, 32}, {"Radix", ProtoTCC, 32},
		{"Radix", ProtoSEQ, 32}, {"Radix", ProtoBulkSC, 32},
	}

	t.Run("last-point-drops", func(t *testing.T) {
		// Serially, the group's image is held while its points run and
		// dropped as its last point takes it, before the sweep moves on.
		pts := append(append([]Point{}, radix32...), Point{"Ocean", ProtoScalableBulk, 8})
		s := NewSession(detChunks, seed, nil)
		held := map[Point]int64{}
		s.testPointHook = func(p Point) { held[p] = s.warmImages.Load() }
		if err := sweepWithin(t, s, context.Background(), pts, 1).Err(); err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			// The leader's hook runs before it publishes, and the last
			// point of the group has taken and dropped the image by its own.
			want := int64(0)
			if i == 1 || i == 2 {
				want = 1
			}
			if held[p] != want {
				t.Errorf("%v started with %d images held, want %d", p, held[p], want)
			}
		}
	})

	t.Run("leader-panics", func(t *testing.T) {
		for _, par := range []int{1, 4} {
			s := NewSession(detChunks, seed, nil)
			s.testPointHook = func(p Point) {
				if p == radix32[0] {
					panic("injected leader panic")
				}
			}
			out := sweepWithin(t, s, context.Background(), radix32, par)
			if out.Completed != len(radix32)-1 || len(out.Failures) != 1 {
				t.Fatalf("parallelism %d: completed %d, failures %+v", par, out.Completed, out.Failures)
			}
			var ce *CrashError
			if !errors.As(out.Failures[0].Err, &ce) {
				t.Fatalf("parallelism %d: failure is %T, want *CrashError", par, out.Failures[0].Err)
			}
			if n := s.warmImages.Load(); n != 0 {
				t.Errorf("parallelism %d: %d warm images held after the sweep", par, n)
			}
			if par == 1 {
				// The leader failed before publishing: the rest warm up.
				if n := s.warmRestores.Load(); n != 0 {
					t.Errorf("%d points restored an image no leader published", n)
				}
				p := radix32[1]
				res, err := s.Result(p.App, p.Protocol, p.Cores)
				if err != nil {
					t.Fatal(err)
				}
				if ResultFingerprint(res) != standalone(t, p, seed, nil) {
					t.Errorf("%v differs from a standalone run after the leader's panic", p)
				}
			}
		}
	})

	t.Run("canceled-mid-group", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := NewSession(detChunks, seed, nil)
		var started atomic.Int64
		s.testPointHook = func(Point) {
			if started.Add(1) == 2 {
				cancel()
			}
		}
		out := sweepWithin(t, s, ctx, warmPoints(), 2)
		if !out.Aborted || len(out.Failures) != 0 {
			t.Fatalf("aborted=%t failures=%+v, want a clean abort", out.Aborted, out.Failures)
		}
		if n := s.warmImages.Load(); n != 0 {
			t.Errorf("%d warm images held after the canceled sweep", n)
		}
	})

	t.Run("journal-and-cache", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		s1 := NewSession(detChunks, seed, nil)
		if _, err := s1.AttachJournal(path); err != nil {
			t.Fatal(err)
		}
		if err := s1.SweepList(radix32[:2], 1); err != nil {
			t.Fatal(err)
		}
		s1.Journal().Close()

		s := NewSession(detChunks, seed, nil)
		if _, err := s.AttachJournal(path); err != nil {
			t.Fatal(err)
		}
		defer s.Journal().Close()
		if _, err := s.Result("Radix", ProtoSEQ, 32); err != nil {
			t.Fatal(err)
		}
		// Two points restore from the journal and one is cached, so the
		// group has one point left to run and nothing to share.
		pts := append(append([]Point{}, radix32...), radix32...)
		out := sweepWithin(t, s, context.Background(), pts, 2)
		if err := out.Err(); err != nil {
			t.Fatal(err)
		}
		if out.Restored != 2 {
			t.Errorf("restored %d points from the journal, want 2", out.Restored)
		}
		if n := s.warmRestores.Load(); n != 0 {
			t.Errorf("%d points restored a warm image; no group had two points to run", n)
		}
		if n := s.warmImages.Load(); n != 0 {
			t.Errorf("%d warm images held after the sweep", n)
		}
		p := radix32[3]
		res, err := s.Result(p.App, p.Protocol, p.Cores)
		if err != nil {
			t.Fatal(err)
		}
		if ResultFingerprint(res) != standalone(t, p, seed, nil) {
			t.Errorf("%v differs from a standalone run", p)
		}
	})
}
