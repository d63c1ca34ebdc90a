package workload

// Unit tests for the source table, the adversarial generator family's
// determinism contract, and the record/replay interposer — the pieces the
// root-level conformance/differential/replay suites build on.

import (
	"reflect"
	"strings"
	"testing"

	"scalablebulk/internal/tracefmt"
)

func TestRegistryShape(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != SourceName {
		t.Fatalf("Names() = %v; want synthetic first", names)
	}
	adversarial := 0
	for _, d := range Descriptors {
		if d.Doc == "" {
			t.Errorf("source %q has no doc line", d.Name)
		}
		if d.Adversarial {
			adversarial++
			if d.Name == SourceName {
				t.Error("the synthetic default must not be marked adversarial")
			}
		}
	}
	if adversarial < 4 {
		t.Errorf("only %d adversarial sources registered, want >= 4", adversarial)
	}
	if _, ok := Lookup("no-such-source"); ok {
		t.Error("Lookup succeeded on an unregistered name")
	}
}

func TestResolve(t *testing.T) {
	for _, spec := range []string{"", SourceName, "zipf"} {
		factory, err := Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		src, err := factory(Profile{Name: "Barnes"}, 4, 1)
		if err != nil || src == nil {
			t.Fatalf("factory from Resolve(%q) failed: %v", spec, err)
		}
	}

	if _, err := Resolve("no-such-source"); err == nil {
		t.Error("Resolve accepted an unknown source")
	} else if !strings.Contains(err.Error(), SourceName) {
		t.Errorf("unknown-source error %q does not list the registered names", err)
	}

	// A replay spec resolves (the syntax is always valid); the missing file
	// surfaces when a run tries to construct the source.
	factory, err := Resolve("replay:/no/such/trace.sbwt")
	if err != nil {
		t.Fatalf("Resolve(replay:...): %v", err)
	}
	if _, err := factory(Profile{}, 4, 1); err == nil {
		t.Error("replay factory succeeded on a missing trace file")
	}
}

func TestSourceProfile(t *testing.T) {
	if _, ok := SourceProfile(SourceName); ok {
		t.Error("the synthetic source must not claim a label profile")
	}
	if _, ok := SourceProfile("no-such-source"); ok {
		t.Error("SourceProfile succeeded on an unregistered name")
	}
	prof, ok := SourceProfile("zipf")
	if !ok || prof.Name != "zipf" || prof.Suite != "WORKLOAD" {
		t.Errorf("SourceProfile(zipf) = %+v, %v", prof, ok)
	}
}

// collectStream materializes a sample of src's streams for equality checks.
func collectStream(t *testing.T, src Source, threads int) [][]any {
	t.Helper()
	var out [][]any
	for proc := 0; proc < threads; proc++ {
		for i := 0; i < 2; i++ {
			ck := src.WarmupChunk(proc, i)
			out = append(out, []any{ck.Instr, ck.Accesses})
		}
		for seq := uint64(0); seq < 6; seq++ {
			ck := src.NextChunk(proc, seq)
			out = append(out, []any{ck.Instr, ck.Accesses})
		}
	}
	return out
}

// TestAdversarialDeterminism pins the generator contract every source must
// honor: chunk (proc, seq) is a pure function of (params, threads, seed) —
// re-requests (squash re-execution) and fresh sources at the same seed agree
// exactly, and a different seed actually changes the stream.
func TestAdversarialDeterminism(t *testing.T) {
	const threads = 8
	for _, d := range Descriptors {
		if !d.Adversarial {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			prof := Profile{Name: d.Name, Suite: "WORKLOAD"}
			mk := func(seed int64) Source {
				src, err := d.New(prof, threads, seed)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
			a, b := mk(7), mk(7)
			if a.PagesPerThread() <= 0 {
				t.Errorf("PagesPerThread() = %d", a.PagesPerThread())
			}
			sa := collectStream(t, a, threads)
			if !reflect.DeepEqual(sa, collectStream(t, b, threads)) {
				t.Fatal("two sources at one seed produced different streams")
			}
			// Re-requesting a chunk (a squash) regenerates it identically.
			if !reflect.DeepEqual(a.NextChunk(3, 2).Accesses, a.NextChunk(3, 2).Accesses) {
				t.Fatal("NextChunk is not pure: a squashed chunk would re-execute differently")
			}
			if reflect.DeepEqual(sa, collectStream(t, mk(8), threads)) {
				t.Fatal("seed change left the stream untouched")
			}
			for _, row := range sa {
				if row[1] == nil {
					t.Fatal("generator produced a chunk with no accesses")
				}
			}
		})
	}
}

func TestRecordDedupAndSingleRun(t *testing.T) {
	rec, factory, err := Record("")
	if err != nil {
		t.Fatal(err)
	}
	src, err := factory(Profile{Name: "Radix"}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// A squash re-requests the same chunk; the recording must keep one copy.
	first := src.NextChunk(0, 0)
	again := src.NextChunk(0, 0)
	if !reflect.DeepEqual(first.Accesses, again.Accesses) {
		t.Fatal("recorder broke NextChunk purity")
	}
	src.NextChunk(1, 0)
	src.WarmupChunk(0, 0)

	tr := rec.Trace()
	if len(tr.Chunks) != 2 || len(tr.Warmup) != 1 {
		t.Errorf("trace has %d chunks + %d warmup records, want 2 + 1", len(tr.Chunks), len(tr.Warmup))
	}
	h := tr.Header
	if h.App != "Radix" || h.Source != SourceName || h.Threads != 2 || h.Seed != 5 ||
		h.ChunksPerCore != 1 || h.WarmupPerCore != 1 {
		t.Errorf("header %+v does not reflect the recorded run", h)
	}
	rec.SetRunMeta("TCC", "abc123")
	if got := rec.Trace().Header; got.Protocol != "TCC" || got.Fingerprint != "abc123" {
		t.Errorf("SetRunMeta not reflected in header %+v", got)
	}

	if _, err := factory(Profile{Name: "Radix"}, 2, 5); err == nil {
		t.Error("a Recording factory instantiated twice; a trace would interleave two runs")
	}
}

func TestReplayValidation(t *testing.T) {
	rec, factory, err := Record("")
	if err != nil {
		t.Fatal(err)
	}
	src, err := factory(Profile{Name: "FFT"}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 2; proc++ {
		src.WarmupChunk(proc, 0)
		for seq := uint64(0); seq < 3; seq++ {
			src.NextChunk(proc, seq)
		}
	}
	tr := rec.Trace()

	if _, err := Replay(tr)(Profile{}, 4, 3); err == nil {
		t.Error("replay accepted the wrong core count at construction")
	}
	replayed, err := Replay(tr)(Profile{}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := replayed.(Validator)
	if !ok {
		t.Fatal("replay source does not implement Validator; system could over-consume a trace")
	}
	if err := v.Validate(2, 3, 1); err != nil {
		t.Errorf("recorded shape rejected: %v", err)
	}
	if err := v.Validate(2, 2, 1); err != nil {
		t.Errorf("smaller chunk budget rejected: %v", err)
	}
	for name, args := range map[string][3]int{
		"cores":  {4, 3, 1},
		"chunks": {2, 4, 1},
		"warmup": {2, 3, 2},
	} {
		if err := v.Validate(args[0], args[1], args[2]); err == nil {
			t.Errorf("Validate accepted an oversized %s budget", name)
		}
	}

	// Replay serves the recorded stream back verbatim.
	orig, err := Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	live, err := orig(Profile{Name: "FFT"}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 2; proc++ {
		for seq := uint64(0); seq < 3; seq++ {
			got, want := replayed.NextChunk(proc, seq), live.NextChunk(proc, seq)
			if got.Instr != want.Instr || !reflect.DeepEqual(got.Accesses, want.Accesses) {
				t.Fatalf("replayed chunk (%d,%d) differs from the live generator", proc, seq)
			}
		}
	}

	// Out-of-budget requests are a backstop panic with a descriptive message
	// (Validate prevents reaching them through internal/system).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NextChunk served a chunk the trace does not contain")
			}
		}()
		replayed.NextChunk(0, 99)
	}()
}

func TestRecordedTraceRoundTrips(t *testing.T) {
	rec, factory, err := Record("stormdir")
	if err != nil {
		t.Fatal(err)
	}
	src, err := factory(Profile{Name: "stormdir", Suite: "WORKLOAD"}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 2; proc++ {
		src.WarmupChunk(proc, 0)
		src.NextChunk(proc, 0)
	}
	tr := rec.Trace()
	back, err := tracefmt.Decode(tracefmt.Encode(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Error("recorded trace did not survive encode/decode")
	}
}
