package scalablebulk

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"scalablebulk/internal/dir"
	"scalablebulk/internal/mesh"
)

// TestDefaultConfigMatchesTable2 pins the paper's Table 2 parameters.
func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig(64, ProtoScalableBulk)
	if cfg.Cores != 64 {
		t.Error("cores")
	}
	if mesh.LinkLatency != 7 {
		t.Error("interconnect link latency must be 7 cycles")
	}
	if dir.MemLatency != 300 {
		t.Error("memory roundtrip must be 300 cycles")
	}
	if dir.LookupLatency != 2 {
		t.Error("directory lookup must be 2 cycles")
	}
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.Assoc != 4 {
		t.Error("L1 must be 32KB/4-way")
	}
	if cfg.L2.SizeBytes != 512<<10 || cfg.L2.Assoc != 8 {
		t.Error("L2 must be 512KB/8-way")
	}
	if cfg.ProtoOptions != nil {
		t.Error("DefaultConfig leaves ProtoOptions nil (table defaults apply)")
	}
	if !IsProtocol(ProtoScalableBulk) || !IsProtocol(ProtoNoOCI) {
		t.Error("ScalableBulk and its OCI-off ablation must be runnable")
	}
}

func TestEighteenApps(t *testing.T) {
	if len(Splash2()) != 11 || len(Parsec()) != 7 || len(Apps()) != 18 {
		t.Fatalf("apps: %d SPLASH-2, %d PARSEC", len(Splash2()), len(Parsec()))
	}
	if _, ok := AppByName("Canneal"); !ok {
		t.Fatal("AppByName broken")
	}
}

func TestRunSmoke(t *testing.T) {
	prof, _ := AppByName("FFT")
	cfg := DefaultConfig(8, ProtoScalableBulk)
	cfg.ChunksPerCore = 4
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksCommitted != 32 {
		t.Fatalf("committed %d", res.ChunksCommitted)
	}
}

func TestSessionCachesRuns(t *testing.T) {
	s := NewSession(2, 1, nil)
	a, err := s.Result("LU", ProtoScalableBulk, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result("LU", ProtoScalableBulk, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("session did not cache the run")
	}
}

// TestSessionResultsDoNotPinMachines holds a Session's cached Results to
// plain data: after the runs, the heap they keep alive must be a small
// fraction of a machine (a 64-core machine is ≈ 20 MB of caches, directory
// state and mesh). Not parallel: it measures the whole process heap.
func TestSessionResultsDoNotPinMachines(t *testing.T) {
	const maxPerPoint = 1 << 20
	apps := []string{"Barnes", "FFT", "Ocean", "Radix"}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, check := range []bool{false, true} {
		before := heap()
		s := NewSession(1, 1, nil)
		s.Check = check
		var results []*Result
		for _, app := range apps {
			r, err := s.Result(app, ProtoScalableBulk, 64)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		after := heap()
		runtime.KeepAlive(s)
		runtime.KeepAlive(results)
		perPoint := (int64(after) - int64(before)) / int64(len(apps))
		t.Logf("check=%v: %.2f MB retained per 64-core point", check, float64(perPoint)/(1<<20))
		if perPoint > maxPerPoint {
			t.Errorf("check=%v: %d bytes retained per point, want ≤ %d: a Result keeps its machine reachable",
				check, perPoint, maxPerPoint)
		}
	}
}

// TestFigureGenerators runs two figure generators on a small session and
// sanity-checks the emitted rows. (perfbench's sweep workload renders every
// FigureIDs() figure over the full 18-app session.)
func TestFigureGenerators(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(4, 1, &buf)
	// Restrict via direct calls on small subsets where figure API allows;
	// the dispatcher runs the full set, so use the cheapest figure ids.
	if err := s.Figure(9); err != nil {
		t.Fatal(err)
	}
	if err := s.Figure(11); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 9", "Radix_64", "AVERAGE_32", "Figure 11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureDispatcherRejectsUnknown(t *testing.T) {
	s := NewSession(1, 1, nil)
	if err := s.Figure(42); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(FigureIDs()) != 13 {
		t.Fatalf("FigureIDs = %v", FigureIDs())
	}
}

// TestSweepRestoredPointsMatchRun sweeps every figure point on a parallel
// session, where three of each unit's four protocol points restore a warm
// image, and holds each application's TCC-64 point — a restored one — to
// the full fingerprint of a standalone RunContext.
func TestSweepRestoredPointsMatchRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full parallel sweep")
	}
	const seed = 1
	s := NewSession(detChunks, seed, nil)
	if err := s.SweepContext(context.Background(), s.SweepPoints(), 4).Err(); err != nil {
		t.Fatal(err)
	}
	// 18 applications × 2 machine sizes, three restores per unit of four.
	if n := s.warmRestores.Load(); n != 108 {
		t.Errorf("%d points restored a warm image, want 108", n)
	}
	for _, prof := range Apps() {
		p := Point{prof.Name, ProtoTCC, 64}
		res, err := s.Result(p.App, p.Protocol, p.Cores)
		if err != nil {
			t.Fatal(err)
		}
		if ResultFingerprint(res) != standalone(t, p, s.SweepSpec) {
			t.Errorf("%v differs from a standalone run", p)
		}
	}
}
