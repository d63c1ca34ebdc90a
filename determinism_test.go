package scalablebulk

// Golden-trace determinism tests: the simulator's contract is that a
// (config, seed) pair fully determines every measurement, bit for bit,
// regardless of process, goroutine scheduling, or whether results were
// produced serially or by the parallel sweep engine. These tests catch any
// map-iteration or goroutine-order leak into results.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/workload"
)

// detChunks sizes the determinism runs: 64 × detChunks chunks in all,
// spread over the machine, small enough to keep the matrix fast.
const detChunks = 1

// serialFingerprint runs one point exactly the way Session.run does and
// fingerprints it.
func serialFingerprint(t *testing.T, app, protocol string, cores int, seed int64) string {
	t.Helper()
	cfg := DefaultConfig(cores, protocol)
	cfg.Seed = seed
	prof, ok := AppByName(app)
	if !ok {
		// Registered workload sources (the adversarial family) fingerprint
		// under their own name, exactly as Session.run resolves them.
		if prof, ok = WorkloadProfile(app); !ok {
			t.Fatalf("unknown app or workload %q", app)
		}
		cfg.Workload = app
	}
	r, err := RunScaled(prof, cfg, 64*detChunks)
	if err != nil {
		t.Fatalf("%s/%s/%d: %v", app, protocol, cores, err)
	}
	return ResultFingerprint(r)
}

// TestDeterminismEveryProtocolWorkload covers every registered protocol
// (variants included) × every registered workload source at 16 processors:
// each cell runs twice serially and once through a parallel Session sweep,
// and all three ResultFingerprints must be byte-identical — results are
// independent of process state, goroutine scheduling and sweep parallelism.
func TestDeterminismEveryProtocolWorkload(t *testing.T) {
	const cores, seed = 16, 7
	apps := []string{"Barnes", "FFT"}
	for _, w := range RegisteredWorkloads() {
		if w.Name != "synthetic" {
			apps = append(apps, w.Name)
		}
	}
	var pts []Point
	for _, p := range RegisteredProtocols() {
		for _, app := range apps {
			pts = append(pts, Point{app, p.Name, cores})
		}
	}
	swept := NewSession(detChunks, seed, nil)
	if err := swept.SweepContext(context.Background(), pts, 4).Err(); err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		t.Run(fmt.Sprintf("%s/%s", pt.Protocol, pt.App), func(t *testing.T) {
			t.Parallel()
			first := serialFingerprint(t, pt.App, pt.Protocol, cores, seed)
			if again := serialFingerprint(t, pt.App, pt.Protocol, cores, seed); again != first {
				t.Errorf("two serial runs differ:\n--- run 1\n%s--- run 2\n%s", first, again)
			}
			r, err := swept.Result(pt.App, pt.Protocol, cores)
			if err != nil {
				t.Fatalf("sweep result: %v", err)
			}
			if got := ResultFingerprint(r); got != first {
				t.Errorf("parallel sweep differs from serial:\n--- serial\n%s--- sweep\n%s", first, got)
			}
		})
	}
}

// TestDeterminismEveryProtocol runs every protocol at 16 and 64 processors
// with a fixed seed three ways — serial, serial again, and through a
// parallel sweep — and requires byte-identical fingerprints.
func TestDeterminismEveryProtocol(t *testing.T) {
	const app, seed = "Barnes", 7

	// Parallel path: one session, all points populated by a 4-worker sweep.
	par := NewSession(detChunks, seed, nil)
	var pts []Point
	for _, protocol := range Protocols {
		for _, cores := range []int{16, 64} {
			pts = append(pts, Point{app, protocol, cores})
		}
	}
	if err := par.SweepContext(context.Background(), pts, 4).Err(); err != nil {
		t.Fatal(err)
	}

	for _, protocol := range Protocols {
		for _, cores := range []int{16, 64} {
			name := fmt.Sprintf("%s/%d", protocol, cores)
			first := serialFingerprint(t, app, protocol, cores, seed)
			again := serialFingerprint(t, app, protocol, cores, seed)
			if first != again {
				t.Errorf("%s: two serial runs differ:\n--- run 1\n%s--- run 2\n%s", name, first, again)
			}
			r, err := par.Result(app, protocol, cores)
			if err != nil {
				t.Fatalf("%s: sweep result: %v", name, err)
			}
			if got := ResultFingerprint(r); got != first {
				t.Errorf("%s: parallel sweep differs from serial:\n--- serial\n%s--- sweep\n%s", name, first, got)
			}
		}
	}
}

// TestDeterminismFigureOutput renders figures from a serially-populated
// session and from a session populated by a parallel sweep, and requires
// byte-identical output.
func TestDeterminismFigureOutput(t *testing.T) {
	// render draws Figures 9 and 11 from s, whose output is buf.
	render := func(s *Session, buf *bytes.Buffer) string {
		if err := s.Figure(9); err != nil {
			t.Fatal(err)
		}
		if err := s.Figure(11); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// The points Figures 9 and 11 consume.
	var pts []Point
	for _, p := range Splash2() {
		for _, cores := range []int{32, 64} {
			pts = append(pts, Point{p.Name, ProtoScalableBulk, cores})
		}
	}

	var serialBuf, sweptBuf bytes.Buffer
	serial := NewSession(detChunks, 3, &serialBuf)
	serialOut := render(serial, &serialBuf) // Result() calls run points one at a time

	swept := NewSession(detChunks, 3, &sweptBuf)
	if err := swept.SweepContext(context.Background(), pts, 4).Err(); err != nil {
		t.Fatal(err)
	}
	sweptOut := render(swept, &sweptBuf) // all points come from the sweep-filled cache

	if serialOut != sweptOut {
		t.Errorf("figure output differs between serial and swept sessions:\n--- serial\n%s--- swept\n%s",
			serialOut, sweptOut)
	}
	if len(serialOut) == 0 {
		t.Error("figure render produced no output")
	}
}

// TestSweepSingleFlight checks that concurrent requests for one point share
// a single simulation: after a wide sweep over a duplicated point list the
// session must have run each unique point exactly once (observable as a
// stable fingerprint and no error).
func TestSweepSingleFlight(t *testing.T) {
	s := NewSession(detChunks, 5, nil)
	pts := make([]Point, 32)
	for i := range pts {
		pts[i] = Point{"FFT", ProtoScalableBulk, 16} // same point 32 times
	}
	if err := s.SweepContext(context.Background(), pts, 8).Err(); err != nil {
		t.Fatal(err)
	}
	r1, err := s.Result("FFT", ProtoScalableBulk, 16)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result("FFT", ProtoScalableBulk, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("cache returned different Result pointers for one point")
	}
	if got, want := ResultFingerprint(r1), serialFingerprint(t, "FFT", ProtoScalableBulk, 16, 5); got != want {
		t.Errorf("swept result differs from serial:\n--- serial\n%s--- swept\n%s", want, got)
	}
}

// countingSource counts NextChunk requests per (core, seq).
type countingSource struct {
	workload.Source
	calls map[[2]uint64]int
}

func (s *countingSource) NextChunk(proc int, seq uint64) *chunk.Chunk {
	s.calls[[2]uint64{uint64(proc), seq}]++
	return s.Source.NextChunk(proc, seq)
}

// TestEachChunkRequestedOnce: under a squash-heavy workload a processor
// re-executes squashed and abandoned chunks from its own copy, so the source
// serves every (core, seq) exactly once, and the run's fingerprint is the
// one it had when abandoned chunks were regenerated from the source.
func TestEachChunkRequestedOnce(t *testing.T) {
	prof, ok := WorkloadProfile("zipf")
	if !ok {
		t.Fatal("no zipf workload")
	}
	cfg := DefaultConfig(16, ProtoScalableBulk)
	cfg.ChunksPerCore = 8
	zipf, err := workload.Resolve("zipf")
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{calls: map[[2]uint64]int{}}
	cfg.WorkloadFactory = func(prof workload.Profile, threads int, seed int64) (workload.Source, error) {
		s, err := zipf(prof, threads, seed)
		src.Source = s
		return src, err
	}
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Squashes == 0 {
		t.Fatal("no squashes: the run does not exercise re-execution")
	}
	if want := cfg.Cores * cfg.ChunksPerCore; len(src.calls) != want {
		t.Errorf("%d distinct (core, seq) requested, want %d", len(src.calls), want)
	}
	for k, n := range src.calls {
		if n != 1 {
			t.Errorf("core %d seq %d requested %d times, want once", k[0], k[1], n)
		}
	}
	const want = "17a96e145601d4a82e8b65df4b704e2922a19e90330191d5a1d7e8010d77f391"
	if got := FingerprintSHA(res); got != want {
		t.Errorf("fingerprint sha256 %s, want %s", got, want)
	}
}
