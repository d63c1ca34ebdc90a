package scalablebulk

// Execution-resilience support for sweeps and soaks: per-point crash bundles
// (a panicking point becomes a JSON report instead of killing the sweep) and
// a JSONL checkpoint journal of completed points, fingerprint-verified on
// load so a resumed sweep can skip verified-complete work and an interrupted
// sweep still produces byte-identical figure output. See DESIGN.md §10.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/system"
	"scalablebulk/internal/workload"
)

// configSignature canonicalizes every result-determining Config field. The
// journal keys entries by its hash, so a journal is only reused against the
// exact machine, workload sizing, seed and fault schedule that produced it.
// MaxCycles and RunTimeout are deliberately excluded: they are budgets, and
// the measurements of a run that completed do not depend on them. TraceSink is
// excluded too: tracing observes a run without perturbing its results, so a
// traced run may reuse an untraced run's journal entry and vice versa.
func configSignature(cfg Config) string {
	faults := "off"
	if cfg.Faults.Enabled() {
		faults = cfg.Faults.Name
	}
	// "" and "synthetic" are the same source; hash them identically.
	wl := cfg.Workload
	if wl == "" {
		wl = workload.SourceName
	}
	// system.Options resolves a nil ProtoOptions, so an explicit
	// default-valued option block and an omitted one hash identically. The
	// Table 2 latencies are constants; they stay in the text so v3 hashes
	// do not move.
	return fmt.Sprintf(
		"v3 cores=%d proto=%s wl=%s chunks=%d warmup=%d seed=%d link=%d mem=%d dir=%d cont=%t l1=%d/%d l2=%d/%d opts=%+v faults=%s fseed=%d check=%t",
		cfg.Cores, cfg.Protocol, wl, cfg.ChunksPerCore, cfg.WarmupChunks, cfg.Seed,
		mesh.LinkLatency, dir.MemLatency, dir.LookupLatency, cfg.Contention,
		cfg.L1.SizeBytes, cfg.L1.Assoc, cfg.L2.SizeBytes, cfg.L2.Assoc,
		system.Options(cfg), faults, cfg.FaultSeed, cfg.Check)
}

// ConfigHash is the short hex digest of the config's canonical signature,
// used as the journal key alongside the point.
func ConfigHash(cfg Config) string {
	h := sha256.Sum256([]byte(configSignature(cfg)))
	return hex.EncodeToString(h[:8])
}

func fingerprintHash(fp string) string {
	h := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(h[:])
}

// FingerprintSHA is the SHA-256 hex digest of a run's ResultFingerprint —
// the form journals store and recorded workload traces embed, so a replayed
// run can be verified against the recording without keeping the full
// fingerprint text.
func FingerprintSHA(r *Result) string { return fingerprintHash(ResultFingerprint(r)) }

// CrashReport is the crash-bundle schema: everything needed to reproduce and
// diagnose one panicking sweep point. Written as JSON under the crash
// directory while the remaining points keep running.
type CrashReport struct {
	Time         string `json:"time"`
	App          string `json:"app"`
	Protocol     string `json:"protocol"`
	Cores        int    `json:"cores"`
	Seed         int64  `json:"seed"`
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	ConfigHash   string `json:"config_hash"`
	// Corr is the farm correlation ID of the sweep that ran the point, when
	// the crash happened under a farm lease — the grep key tying this bundle
	// to the client log, server event log and journal entry.
	Corr        string     `json:"corr,omitempty"`
	Cycle       event.Time `json:"cycle_reached,omitempty"`
	Panic       string     `json:"panic"`
	MachineDump string     `json:"machine_dump,omitempty"` // truncated (system.MaxDumpLines)
	Stack       string     `json:"stack"`
}

// NewCrashReport builds the crash bundle for a panic value recovered while
// running point p under cfg. If the panic unwound out of the simulator it
// arrives wrapped in *system.RunPanic, which carries the simulated cycle
// reached, the truncated machine dump and the original stack; a bare value
// gets the recovery site's stack instead.
func NewCrashReport(p Point, cfg Config, recovered any) *CrashReport {
	cr := &CrashReport{
		Time: time.Now().UTC().Format(time.RFC3339),
		App:  p.App, Protocol: p.Protocol, Cores: p.Cores,
		Seed:       cfg.Seed,
		ConfigHash: ConfigHash(cfg),
		Panic:      fmt.Sprint(recovered),
		Stack:      string(debug.Stack()),
	}
	if cfg.Faults.Enabled() {
		cr.FaultProfile = cfg.Faults.Name
		cr.FaultSeed = cfg.FaultSeed
	}
	if rp, ok := recovered.(*system.RunPanic); ok {
		cr.Cycle = rp.Cycle
		cr.MachineDump = rp.Dump
		cr.Stack = rp.Stack
		cr.Panic = fmt.Sprint(rp.Value)
	}
	return cr
}

// WriteCrashBundle writes the report as an indented JSON file under dir
// (created if needed) and returns its path.
func WriteCrashBundle(dir string, r *CrashReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, crashBundleName(r, time.Now().UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// crashBundleName builds a bundle filename that cannot collide across
// distinct points: sanitizeName is lossy ("a/b" and "a_b" both sanitize to
// "a_b"), so the readable prefix is followed by a short digest of the
// unsanitized point identity plus the config hash, which distinguishes
// points the sanitized names cannot.
func crashBundleName(r *CrashReport, nano int64) string {
	h := sha256.Sum256([]byte(r.App + "\x00" + r.Protocol + "\x00" + r.ConfigHash))
	return fmt.Sprintf("crash-%s-%s-%d-%s-%d.json",
		sanitizeName(r.App), sanitizeName(r.Protocol), r.Cores,
		hex.EncodeToString(h[:4]), nano)
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// CrashError is the error a panicking sweep point resolves to: the point
// keeps its slot in the sweep's failure summary while the remaining points
// run to completion.
type CrashError struct {
	Point      Point
	Report     *CrashReport
	BundlePath string // "" when no crash directory was configured
	WriteErr   error  // non-nil if writing the bundle itself failed
}

func (e *CrashError) Error() string {
	s := fmt.Sprintf("point %s/%s/%d panicked: %s",
		e.Point.App, e.Point.Protocol, e.Point.Cores, e.Report.Panic)
	if e.BundlePath != "" {
		s += " (crash bundle: " + e.BundlePath + ")"
	}
	if e.WriteErr != nil {
		s += fmt.Sprintf(" (crash bundle write failed: %v)", e.WriteErr)
	}
	return s
}

// MarshalResult encodes the restorable subset of a Result — the same fields
// the checkpoint journal persists — as JSON. The farm wire protocol ships
// worker results to the server through this encoding.
func MarshalResult(r *Result) ([]byte, error) { return json.Marshal(r) }

// UnmarshalResult decodes a MarshalResult encoding back into a restored
// Result. Callers that need integrity (the farm server and thin clients)
// re-hash the restored result's ResultFingerprint and compare it against the
// digest that traveled alongside.
func UnmarshalResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// journalEntry is one JSONL line: a completed point keyed by (point,
// config-hash), its full restorable result, the SHA-256 of its
// ResultFingerprint (verified on load). Entries written when runs carried a
// retry history hold an "attempts" array too; decoding ignores it.
type journalEntry struct {
	V           int     `json:"v"`
	App         string  `json:"app"`
	Protocol    string  `json:"protocol"`
	Cores       int     `json:"cores"`
	ConfigHash  string  `json:"config_hash"`
	Fingerprint string  `json:"fingerprint_sha256"`
	WallMS      float64 `json:"wall_ms"`
	// Corr is the farm correlation ID of the sweep that recorded the entry
	// ("" for in-process sweeps).
	Corr   string  `json:"corr,omitempty"`
	Result *Result `json:"result"`
}

type journalKey struct {
	app, protocol string
	cores         int
	configHash    string
}

// Journal is the durable sweep checkpoint: an append-only JSONL file of
// completed points. Safe for concurrent use by sweep workers and for sharing
// across Sessions (e.g. one journal spanning a soak's seed rounds).
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries map[journalKey]*journalEntry
}

// ErrJournalLocked marks an OpenJournal attempt against a journal another
// live process holds open (errors.Is); the concrete *JournalLockedError
// carries the path. The lock is the file itself (flock), so a process killed
// with SIGKILL releases it automatically — there are no stale lock files to
// clean up.
var ErrJournalLocked = errors.New("journal is locked by another process")

// JournalLockedError reports the contended journal path.
type JournalLockedError struct{ Path string }

func (e *JournalLockedError) Error() string {
	return fmt.Sprintf("journal %s is locked by another process", e.Path)
}

// Unwrap makes errors.Is(err, ErrJournalLocked) match.
func (e *JournalLockedError) Unwrap() error { return ErrJournalLocked }

// OpenJournal opens (creating if absent) the journal at path and loads its
// entries. The file is locked exclusively for the life of the Journal, so
// two processes (e.g. a restarted sbserver and a stale one) can never append
// to the same journal concurrently: the second open fails with
// *JournalLockedError. A truncated final line — the signature of a kill
// mid-append — is discarded: the file is truncated back to the last complete
// entry before appending resumes, so a crashed writer never corrupts the
// journal.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockJournalFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrJournalLocked) {
			return nil, &JournalLockedError{Path: path}
		}
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{path: path, entries: map[journalKey]*journalEntry{}}
	valid := 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // truncated tail: drop it
		}
		line := data[valid : valid+nl]
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break // corrupt line: drop it and everything after
		}
		if e.V == 1 && e.Result != nil {
			e := e
			j.entries[journalKey{e.App, e.Protocol, e.Cores, e.ConfigHash}] = &e
		}
		valid += nl + 1
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.f = f
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of loaded-plus-recorded entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Lookup restores the journaled result for (p, configHash). The restored
// result's ResultFingerprint is re-hashed and compared against the recorded
// digest; a mismatch (corruption, or a result produced by different code)
// reports ok=false so the point is re-run rather than trusted.
func (j *Journal) Lookup(p Point, configHash string) (res *Result, ok bool) {
	j.mu.Lock()
	e := j.entries[journalKey{p.App, p.Protocol, p.Cores, configHash}]
	j.mu.Unlock()
	if e == nil {
		return nil, false
	}
	r := *e.Result
	res = &r
	if fingerprintHash(ResultFingerprint(res)) != e.Fingerprint {
		return nil, false
	}
	return res, true
}

// Record appends one completed point, fsyncing so a subsequent kill cannot
// lose it. corr is the farm correlation ID stamped into the entry ("" for
// in-process sweeps), so `grep <corr>` finds the journal line alongside the
// event log and crash bundles.
func (j *Journal) Record(p Point, configHash string, res *Result, wall time.Duration, corr string) error {
	// The entry holds what a reload would: no run-scoped fields.
	persisted := *res
	persisted.ProtoStats, persisted.RingResidency = nil, 0
	e := &journalEntry{
		V: 1, App: p.App, Protocol: p.Protocol, Cores: p.Cores,
		ConfigHash:  configHash,
		Fingerprint: fingerprintHash(ResultFingerprint(res)),
		WallMS:      float64(wall.Microseconds()) / 1000,
		Corr:        corr,
		Result:      &persisted,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[journalKey{p.App, p.Protocol, p.Cores, configHash}] = e
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// JournalPoint summarizes one journal entry for reports: the point and how
// long it took.
type JournalPoint struct {
	Point      Point   `json:"point"`
	ConfigHash string  `json:"config_hash"`
	WallMS     float64 `json:"wall_ms"`
}

// Points lists the journal's entries (order unspecified).
func (j *Journal) Points() []JournalPoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalPoint, 0, len(j.entries))
	for _, e := range j.entries {
		out = append(out, JournalPoint{
			Point:      Point{e.App, e.Protocol, e.Cores},
			ConfigHash: e.ConfigHash, WallMS: e.WallMS,
		})
	}
	return out
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
