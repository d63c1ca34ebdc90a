package scalablebulk

// Replay bit-identity suite: a recorded run, replayed from its trace file,
// must reproduce the recording's ResultFingerprint byte for byte — for every
// registered protocol — and damaged trace files must be rejected with the
// tracefmt typed errors before a machine is built (mirroring the checkpoint-
// journal tamper tests of DESIGN.md §10).

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"scalablebulk/internal/tracefmt"
	"scalablebulk/internal/workload"
)

// recordRun records one run of app under protocol and returns the trace and
// the run's fingerprint.
func recordRun(t *testing.T, app, protocol string, cores, chunks int, seed int64) (*tracefmt.Trace, string) {
	t.Helper()
	prof, ok := AppByName(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	cfg := DefaultConfig(cores, protocol)
	cfg.ChunksPerCore = chunks
	cfg.Seed = seed
	rec, factory, err := workload.Record("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkloadFactory = factory
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	rec.SetRunMeta(protocol, FingerprintSHA(res))
	return rec.Trace(), ResultFingerprint(res)
}

// replayFingerprint replays tr under protocol with the recorded machine shape.
func replayFingerprint(t *testing.T, tr *tracefmt.Trace, protocol string) string {
	t.Helper()
	cfg := DefaultConfig(tr.Header.Threads, protocol)
	prof := AdoptReplay(&cfg, tr)
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatalf("replay under %s: %v", protocol, err)
	}
	return ResultFingerprint(res)
}

// TestReplayBitIdentity: for every registered protocol, record → encode →
// decode → replay reproduces the recording's fingerprint byte-equal. The
// trace crosses the wire format both ways, so this also pins that encoding
// loses nothing a run observes.
func TestReplayBitIdentity(t *testing.T) {
	for _, p := range RegisteredProtocols() {
		protocol := p.Name
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			tr, want := recordRun(t, "Radix", protocol, 4, 6, 11)
			back, err := tracefmt.Decode(tracefmt.Encode(tr))
			if err != nil {
				t.Fatalf("decode∘encode: %v", err)
			}
			got := replayFingerprint(t, back, protocol)
			if got != want {
				t.Errorf("replayed fingerprint differs from recording:\n--- recorded\n%s--- replayed\n%s", want, got)
			}
			if sha := fingerprintHash(got); sha != back.Header.Fingerprint {
				t.Errorf("embedded fingerprint sha %s != replayed %s", back.Header.Fingerprint, sha)
			}
		})
	}
}

// TestReplayCrossProtocol: a trace recorded under one protocol replays to
// completion under every other — chunk streams are protocol-independent, so
// the same workload confronts all engines.
func TestReplayCrossProtocol(t *testing.T) {
	tr, _ := recordRun(t, "FFT", ProtoScalableBulk, 4, 4, 3)
	for _, p := range RegisteredProtocols() {
		protocol := p.Name
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			first := replayFingerprint(t, tr, protocol)
			again := replayFingerprint(t, tr, protocol)
			if first != again {
				t.Errorf("two replays under %s differ:\n--- run 1\n%s--- run 2\n%s", protocol, first, again)
			}
		})
	}
}

// TestReplayShapeValidation: replay refuses machine shapes the trace cannot
// serve — wrong core count at source construction, oversized chunk or
// warm-up budgets through the Validator hook — as build errors, never
// mid-run panics.
func TestReplayShapeValidation(t *testing.T) {
	tr, _ := recordRun(t, "Radix", ProtoScalableBulk, 4, 4, 3)
	run := func(mutate func(*Config)) error {
		cfg := DefaultConfig(tr.Header.Threads, ProtoScalableBulk)
		prof := AdoptReplay(&cfg, tr)
		mutate(&cfg)
		_, err := Run(prof, cfg)
		return err
	}
	if err := run(func(cfg *Config) {}); err != nil {
		t.Fatalf("recorded shape must replay cleanly: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"more cores":  func(cfg *Config) { cfg.Cores = 8 },
		"fewer cores": func(cfg *Config) { cfg.Cores = 2 },
		"more chunks": func(cfg *Config) { cfg.ChunksPerCore++ },
		"more warmup": func(cfg *Config) { cfg.WarmupChunks++ },
	} {
		if err := run(mutate); err == nil {
			t.Errorf("%s: replay accepted a shape the trace cannot serve", name)
		}
	}
}

// TestReplayFileTamper: truncated and corrupted trace files surface the
// tracefmt typed errors through system.Run (via Config.Workload =
// "replay:PATH"), so a damaged trace can never silently replay as something
// else.
func TestReplayFileTamper(t *testing.T) {
	tr, _ := recordRun(t, "Radix", ProtoScalableBulk, 4, 4, 3)
	data := tracefmt.Encode(tr)
	dir := t.TempDir()

	runFile := func(path string) error {
		cfg := DefaultConfig(tr.Header.Threads, ProtoScalableBulk)
		prof := AdoptReplay(&cfg, tr)
		cfg.WorkloadFactory, cfg.Workload = nil, "replay:"+path
		_, err := Run(prof, cfg)
		return err
	}

	good := filepath.Join(dir, "good.sbwt")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFile(good); err != nil {
		t.Fatalf("intact trace must replay: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated mid-file", func(b []byte) []byte { return b[:len(b)/2] }, tracefmt.ErrChecksum},
		{"truncated to magic", func(b []byte) []byte { return b[:4] }, tracefmt.ErrTruncated},
		{"flipped byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, tracefmt.ErrChecksum},
		{"wrong magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, tracefmt.ErrMagic},
		{"not a trace", func(b []byte) []byte { return []byte("{\"journal\": true}") }, tracefmt.ErrMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "tampered.sbwt")
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			err := runFile(path)
			if err == nil {
				t.Fatal("tampered trace replayed without error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		if err := runFile(filepath.Join(dir, "nope.sbwt")); err == nil {
			t.Fatal("missing trace file replayed without error")
		}
	})
}
