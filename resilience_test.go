package scalablebulk

// Resilience-layer tests: per-point panic isolation with crash bundles,
// mid-sweep cancellation, journal round-trips with fingerprint verification
// and truncated-tail recovery, and the headline acceptance check — a sweep
// killed partway resumes from its journal and still renders byte-identical
// figure output.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scalablebulk/internal/fault"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/tcc"
	"scalablebulk/internal/trace"
)

// TestSweepPanicIsolation: one point's panic becomes a *CrashError with a
// valid JSON crash bundle while every other point completes.
func TestSweepPanicIsolation(t *testing.T) {
	victim := Point{"FFT", ProtoTCC, 16}
	points := []Point{
		{"Radix", ProtoScalableBulk, 8},
		{"Radix", ProtoTCC, 8},
		{"FFT", ProtoScalableBulk, 16},
		victim,
	}
	dir := t.TempDir()
	s := NewSession(detChunks, 2, nil)
	s.CrashDir = dir
	s.testPointHook = func(p Point, _ *Config) {
		if p == victim {
			panic("injected sweep panic")
		}
	}
	out := s.SweepContext(context.Background(), points, 2)
	if out.Completed != len(points)-1 {
		t.Errorf("completed = %d, want %d (all but the victim)", out.Completed, len(points)-1)
	}
	if out.Aborted {
		t.Error("a panicking point must not abort the sweep")
	}
	if len(out.Failures) != 1 || out.Failures[0].Point != victim {
		t.Fatalf("failures = %+v, want exactly the victim", out.Failures)
	}
	var ce *CrashError
	if !errors.As(out.Failures[0].Err, &ce) {
		t.Fatalf("failure error is %T, want *CrashError", out.Failures[0].Err)
	}
	if ce.WriteErr != nil || ce.BundlePath == "" {
		t.Fatalf("crash bundle not written: path=%q err=%v", ce.BundlePath, ce.WriteErr)
	}
	data, err := os.ReadFile(ce.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var rep CrashReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("crash bundle is not valid JSON: %v", err)
	}
	if rep.App != victim.App || rep.Protocol != victim.Protocol || rep.Cores != victim.Cores {
		t.Errorf("bundle identifies %s/%s/%d, want the victim", rep.App, rep.Protocol, rep.Cores)
	}
	if rep.Panic != "injected sweep panic" || rep.Stack == "" || rep.ConfigHash == "" {
		t.Errorf("bundle incomplete: panic=%q stack=%dB hash=%q", rep.Panic, len(rep.Stack), rep.ConfigHash)
	}

	// The non-victim points really completed.
	if _, err := s.Result("Radix", ProtoTCC, 8); err != nil {
		t.Errorf("sibling point failed: %v", err)
	}
}

// panicSink is a trace sink that panics with its value at the first commit
// attempt to end: a fault inside the running simulator, past cycle 0.
type panicSink string

func (s panicSink) Event(e trace.Event) {
	if e.Kind == trace.KCommit && e.Phase == trace.PhaseEnd {
		panic(string(s))
	}
}

func (panicSink) Close() error { return nil }

// TestCrashBundleFromRunPanic: a panic inside the simulator (not the test
// seam) reaches the bundle wrapped in machine context — simulated cycle and
// truncated machine dump.
func TestCrashBundleFromRunPanic(t *testing.T) {
	s := NewSession(detChunks, 2, nil)
	s.testPointHook = func(_ Point, cfg *Config) {
		if cfg.Protocol == ProtoTCC {
			cfg.TraceSink = panicSink("mid-simulation fault")
		}
	}
	_, err := s.Result("Radix", ProtoTCC, 8)
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected *CrashError, got %v", err)
	}
	rep := ce.Report
	if rep.Panic != "mid-simulation fault" {
		t.Errorf("Panic = %q", rep.Panic)
	}
	if rep.Cycle == 0 {
		t.Error("Cycle = 0; the simulated time at the panic is lost")
	}
	if rep.MachineDump == "" {
		t.Error("MachineDump empty; the machine state at the panic is lost")
	}
	if !strings.Contains(rep.Stack, "goroutine") {
		t.Error("Stack is not the panicking goroutine's Go stack")
	}
	// The healthy protocol on the same session is untouched.
	if _, err := s.Result("Radix", ProtoScalableBulk, 8); err != nil {
		t.Errorf("healthy point failed: %v", err)
	}
}

// TestResumeAfterCancelByteIdenticalFigures is the acceptance test for
// durable sweeps: cancel a journaled sweep partway, resume it on a fresh
// session from the journal alone, and require figure output byte-identical
// to an uninterrupted reference session.
func TestResumeAfterCancelByteIdenticalFigures(t *testing.T) {
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
	const seed = 3

	var refBuf, resumedBuf bytes.Buffer
	ref := NewSession(detChunks, seed, &refBuf)
	want := render(ref, &refBuf)

	// First sweep: journaled, canceled after the 6th point starts.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(detChunks, seed, nil)
	s1.UseJournal(j1)
	var started atomic.Int64
	s1.testPointHook = func(Point, *Config) {
		if started.Add(1) == 6 {
			cancel()
		}
	}
	out1 := s1.SweepContext(ctx, pts, 4)
	if !out1.Aborted {
		t.Fatal("canceled sweep not reported as aborted")
	}
	if len(out1.Failures) != 0 {
		t.Fatalf("cancellation produced point failures: %+v", out1.Failures)
	}
	j1.Close()

	// The journal left behind is consistent: every entry fingerprint-verifies.
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := j.Len()
	if checkpointed == 0 {
		t.Fatal("canceled sweep checkpointed nothing")
	}
	if checkpointed >= len(pts) {
		t.Fatalf("cancellation did not interrupt the sweep (%d/%d points)", checkpointed, len(pts))
	}
	for _, jp := range j.Points() {
		if _, ok := j.Lookup(jp.Point, jp.ConfigHash); !ok {
			t.Errorf("journal entry %v does not verify", jp.Point)
		}
	}
	j.Close()

	// Resume on a fresh session: journaled points restore, the rest run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(detChunks, seed, &resumedBuf)
	s2.UseJournal(j2)
	out2 := s2.SweepContext(context.Background(), pts, 4)
	if err := out2.Err(); err != nil {
		t.Fatal(err)
	}
	if out2.Restored != checkpointed {
		t.Errorf("restored %d points, journal held %d", out2.Restored, checkpointed)
	}
	if out2.Completed != len(pts) {
		t.Errorf("resumed sweep completed %d/%d points", out2.Completed, len(pts))
	}
	j2.Close()

	if got := render(s2, &resumedBuf); got != want {
		t.Errorf("resumed session's figures differ from the uninterrupted reference:\n--- reference\n%s--- resumed\n%s", want, got)
	}
}

// TestJournalRoundTripVerifies: a recorded result survives a journal
// close/reopen bit-for-bit — including the collector state behind
// BottleneckRatio — and loading tolerates a truncated tail and garbage.
func TestJournalRoundTripVerifies(t *testing.T) {
	prof, _ := AppByName("Radix")
	cfg := DefaultConfig(8, ProtoScalableBulk)
	cfg.Seed = 3
	cfg.ChunksPerCore = 8
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := Point{"Radix", ProtoScalableBulk, 8}
	hash := ConfigHash(cfg)

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(p, hash, res, time.Second, ""); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.Lookup(p, hash)
	if !ok {
		t.Fatal("recorded entry does not restore")
	}
	if ResultFingerprint(got) != ResultFingerprint(res) {
		t.Error("restored fingerprint differs from the live result")
	}
	if got.Coll.BottleneckRatio() != res.Coll.BottleneckRatio() {
		t.Errorf("BottleneckRatio diverged after restore: %v != %v",
			got.Coll.BottleneckRatio(), res.Coll.BottleneckRatio())
	}
	if _, ok := j2.Lookup(p, "deadbeef00000000"); ok {
		t.Error("Lookup matched a foreign config hash")
	}
	j2.Close()

	// A kill mid-append leaves a truncated tail; reopening drops it and
	// keeps every complete entry.
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
		f.WriteString(`{"v":1,"app":"Barnes","truncated`)
		f.Close()
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Len() != 1 {
		t.Errorf("after truncated-tail recovery Len = %d, want 1", j3.Len())
	}
	if _, ok := j3.Lookup(p, hash); !ok {
		t.Error("complete entry lost during truncated-tail recovery")
	}
	// And the file itself was truncated back, so appending stays valid JSONL.
	if err := j3.Record(Point{"FFT", ProtoScalableBulk, 8}, hash, res, 0, ""); err != nil {
		t.Fatal(err)
	}
	j3.Close()
	j4, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j4.Len() != 2 {
		t.Errorf("post-recovery append not readable: Len = %d, want 2", j4.Len())
	}
	j4.Close()
}

// TestJournalRestoresEntriesWithAttempts: journal lines written while runs
// still carried a retry history hold an "attempts" array. They must keep
// restoring, fingerprint-verified, so existing soak and farm journals stay
// usable. The fixture is a Radix point under the chaos profile that took two
// attempts to fit its cycle budget.
func TestJournalRestoresEntriesWithAttempts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "journals", "radix-chaos-attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil || line["attempts"] == nil {
		t.Fatalf("fixture is not a journal line with an attempts array (%v)", err)
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	prof, _ := AppByName("Radix")
	cfg := DefaultConfig(8, ProtoScalableBulk)
	cfg.ChunksPerCore = 4
	cfg.Seed = 3
	if cfg.Faults, err = fault.ByName("chaos"); err != nil {
		t.Fatal(err)
	}
	got, ok := j.Lookup(Point{"Radix", ProtoScalableBulk, 8}, ConfigHash(cfg))
	if !ok {
		t.Fatal("entry with an attempts array does not restore")
	}
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ResultFingerprint(got) != ResultFingerprint(res) {
		t.Error("restored result differs from a fresh run")
	}
}

// TestJournalRejectsTamperedResult: an entry whose stored result no longer
// matches its recorded fingerprint is ignored, forcing a re-run.
func TestJournalRejectsTamperedResult(t *testing.T) {
	prof, _ := AppByName("FFT")
	cfg := DefaultConfig(8, ProtoScalableBulk)
	cfg.Seed = 2
	cfg.ChunksPerCore = 4
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := Point{"FFT", ProtoScalableBulk, 8}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(p, ConfigHash(cfg), res, 0, ""); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"cycles":`+jsonNumber(res.Cycles)), []byte(`"cycles":1`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in journal line")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup(p, ConfigHash(cfg)); ok {
		t.Error("tampered entry passed fingerprint verification")
	}
}

func jsonNumber[T ~uint64 | ~int64](v T) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestCrashBundleNamesDistinct: apps (or protocols) that sanitize to the
// same filesystem-safe string must still get distinct bundle filenames —
// the hash suffix disambiguates what sanitizeName flattens.
func TestCrashBundleNamesDistinct(t *testing.T) {
	mk := func(app, proto string) *CrashReport {
		cfg := DefaultConfig(4, proto)
		return &CrashReport{App: app, Protocol: proto, Cores: 4, ConfigHash: ConfigHash(cfg)}
	}
	const nano = 1234567890
	a := crashBundleName(mk("a/b", "TCC"), nano)
	b := crashBundleName(mk("a_b", "TCC"), nano)
	if a == b {
		t.Errorf("colliding bundle names for a/b vs a_b: %q", a)
	}
	// Same app, different protocol must differ too (protocol changes the
	// config hash, but the name must differ even at identical timestamps).
	c := crashBundleName(mk("a/b", "ScalableBulk"), nano)
	if a == c {
		t.Errorf("colliding bundle names across protocols: %q", a)
	}
	for _, n := range []string{a, b, c} {
		if strings.ContainsAny(n, "/\\ ") {
			t.Errorf("bundle name %q not filesystem-safe", n)
		}
	}
}

// TestJournalLockContended: a second OpenJournal against a live journal must
// fail with the typed lock error, and succeed once the holder closes.
func TestJournalLockContended(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path)
	if !errors.Is(err, ErrJournalLocked) {
		t.Fatalf("contended open: got %v, want ErrJournalLocked", err)
	}
	var locked *JournalLockedError
	if !errors.As(err, &locked) || locked.Path != path {
		t.Fatalf("contended open: got %#v, want *JournalLockedError with path %q", err, path)
	}
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	j2.Close()
}

// TestConfigHashPinned pins the canonical config signature and its hash for
// one fixed config under every protocol: journals are keyed by ConfigHash,
// so an edit to Config, configSignature or a protocol's default option block
// that changes either silently orphans every existing journal entry. Update
// the pins only with a deliberate signature version bump. The NoOCI block
// reads OCI:true because its processor Tuning, not its option block, turns
// OCI off.
func TestConfigHashPinned(t *testing.T) {
	const sig = "v3 cores=8 proto=%s wl=synthetic chunks=4 warmup=64 seed=11 link=7 mem=300 dir=2 cont=true l1=32768/4 l2=524288/8 opts=%s faults=off fseed=0 check=false"
	for _, tc := range []struct{ proto, opts, hash string }{
		{ProtoScalableBulk, "{OCI:true MaxSquashes:12 RotationInterval:0 CommitDeadline:200000}", "15fd432191b09b44"},
		{ProtoTCC, "{VendorServiceTime:4 CommitDeadline:200000}", "b9526b597635594f"},
		{ProtoSEQ, "{CommitDeadline:200000}", "30fd94b78da17eb2"},
		{ProtoBulkSC, "{ServiceTime:6 PerInflight:5 RetryBackoff:30 CommitDeadline:200000}", "7eb7426b5d9e08f0"},
		{ProtoNoOCI, "{OCI:true MaxSquashes:12 RotationInterval:0 CommitDeadline:200000}", "81cdefb25be4a026"},
	} {
		cfg := DefaultConfig(8, tc.proto)
		cfg.Seed = 11
		cfg.ChunksPerCore = 4
		if got, want := configSignature(cfg), fmt.Sprintf(sig, tc.proto, tc.opts); got != want {
			t.Errorf("%s configSignature:\n  got  %q\n  want %q", tc.proto, got, want)
		}
		if got := ConfigHash(cfg); got != tc.hash {
			t.Errorf("%s ConfigHash = %s, want %s", tc.proto, got, tc.hash)
		}
	}
}

// TestSourcePointHashesPinned pins the ConfigHash of points resolved
// through a SweepSpec, workload-source labels included, and one spec's ID:
// a point's App label is its whole workload identity, so removing a way to
// choose the source must leave every journal key and sweep ID where it was.
func TestSourcePointHashesPinned(t *testing.T) {
	spec := SweepSpec{ChunksPerCore: 4, Seed: 11}
	for app, want := range map[string]string{
		"zipf":   "ced2da4d17d8e817",
		"convoy": "376b1f3a20faec73",
		"Radix":  "df928124762a9053",
	} {
		_, cfg, err := spec.Resolve(Point{App: app, Protocol: ProtoScalableBulk, Cores: 16})
		if err != nil {
			t.Fatal(err)
		}
		if got := ConfigHash(cfg); got != want {
			t.Errorf("%s ConfigHash = %s, want %s", app, got, want)
		}
	}
	id := (&SweepSpec{Seed: 1, Points: []Point{{App: "zipf", Protocol: ProtoTCC, Cores: 8}}}).ID()
	if id != "728ffe2ad6e10332" {
		t.Errorf("spec ID = %s, want 728ffe2ad6e10332", id)
	}
}

// TestOptionBlockUsedAsWritten: an engine applies no defaults of its own, so
// a TCC block that sets only CommitDeadline runs with a zero vendor service
// time. It is a different machine from the default block, and both its
// ConfigHash and its ResultFingerprint say so.
func TestOptionBlockUsedAsWritten(t *testing.T) {
	prof, _ := AppByName("Barnes")
	cfg := DefaultConfig(8, ProtoTCC)
	cfg.ChunksPerCore = 4
	def, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := cfg
	partial.ProtoOptions = tcc.Config{CommitDeadline: protocol.DefaultCommitDeadline}
	got, err := Run(prof, partial)
	if err != nil {
		t.Fatal(err)
	}
	if ConfigHash(partial) == ConfigHash(cfg) {
		t.Error("partial option block shares the default block's ConfigHash")
	}
	if ResultFingerprint(got) == ResultFingerprint(def) {
		t.Error("partial option block ran the default machine: VendorServiceTime 0 was replaced by a default")
	}
}
