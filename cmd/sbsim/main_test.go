package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"scalablebulk"
	"scalablebulk/internal/cache"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace")

// runArgs runs the CLI with args on a fresh flag set and returns its exit
// code.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"sbsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("sbsim", flag.ContinueOnError)
	return run()
}

// runFingerprint runs the CLI with args, requires exit 0, and returns the
// result fingerprint it prints.
func runFingerprint(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldStdout := os.Stdout
	os.Stdout = out
	code := runArgs(t, args...)
	os.Stdout = oldStdout
	if code != cliutil.ExitOK {
		t.Fatalf("sbsim %v: exit code %d", args, code)
	}
	stdout, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, fp, ok := strings.Cut(string(stdout), "result fingerprint:    sha256 ")
	if !ok {
		t.Fatalf("sbsim %v printed no fingerprint:\n%s", args, stdout)
	}
	fp, _, _ = strings.Cut(fp, "\n")
	return fp
}

// TestServerRejectsLocalOnlyWorkloads: a replay spec or a recording cannot
// run on a farm — the trace file lives on this machine and a replay adopts
// the trace's machine shape — so sbsim must refuse before contacting the
// server, whichever way the replay is spelled.
func TestServerRejectsLocalOnlyWorkloads(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "no farm here", http.StatusBadRequest)
	}))
	defer srv.Close()

	for name, args := range map[string][]string{
		"replay": {"-app", "replay:" + t.TempDir() + "/run.sbwt"},
		"record": {"-record", t.TempDir() + "/run.sbwt"},
		"trace":  {"-trace", t.TempDir() + "/t.jsonl"},
	} {
		t.Run(name, func(t *testing.T) {
			hits.Store(0)
			code := runArgs(t, append(args, "-server", srv.URL, "-cores", "2", "-chunks", "1")...)
			if code != cliutil.ExitError {
				t.Errorf("exit code %d, want %d", code, cliutil.ExitError)
			}
			if n := hits.Load(); n != 0 {
				t.Errorf("sbsim sent %d request(s) to the farm server", n)
			}
		})
	}
}

// TestSubMillisecondTimeoutRejected: the spec carries -timeout in whole
// milliseconds, so a positive budget under 1 ms would silently mean no
// budget, and so would a negative one. sbsim refuses both before running
// anything, locally or on a farm.
func TestSubMillisecondTimeoutRejected(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "no farm here", http.StatusBadRequest)
	}))
	defer srv.Close()
	for _, timeout := range []string{"500us", "-1s"} {
		for _, mode := range [][]string{nil, {"-server", srv.URL}} {
			code := runArgs(t, append([]string{"-app", "zipf", "-timeout", timeout, "-cores", "2", "-chunks", "1"}, mode...)...)
			if code != cliutil.ExitError {
				t.Errorf("-timeout %s %v: exit code %d, want %d", timeout, mode, code, cliutil.ExitError)
			}
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("sbsim sent %d request(s) to the farm server", n)
	}
}

// TestGoldenTextTrace locks the human-readable lifecycle trace of a tiny
// deterministic run: Barnes under ScalableBulk on 4 cores, 1 chunk per
// core, built the way sbsim builds a local point but with 8 KB L1 and 64 KB
// L2 caches for more sharing. Run with -update after an intentional format
// or protocol change.
func TestGoldenTextTrace(t *testing.T) {
	spec := scalablebulk.SweepSpec{
		ChunksPerCore: 1,
		Scaling:       scalablebulk.ScalingFixed,
		Seed:          1,
		Points:        []scalablebulk.Point{{App: "Barnes", Protocol: scalablebulk.ProtoScalableBulk, Cores: 4}},
	}
	prof, cfg, err := spec.Resolve(spec.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	// Lifecycle kinds only: NoC arrows would bloat the golden file without
	// adding coverage (the delivery-time contract is tested in
	// internal/trace and internal/system).
	filter, err := traceFilter(false, "exec,commit,hold,commit_req,group_formed,group_fail,squash,commit_done", -1, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "barnes4.txt")
	closeTrace, err := openTrace(path, filter)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceSink = filter
	_, _, err = new(scalablebulk.WarmRunner).Run(context.Background(), spec.Points[0], prof, cfg, false, nil)
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "barnes4.golden.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (run with -update after intentional changes)\ngot %d bytes, want %d",
			golden, len(got), len(want))
	}
}

// TestPerfettoPipeline runs `sbsim -trace t.json` on a 64-core figure point
// and validates the Chrome trace-event schema, the acceptance check behind
// the CI trace-smoke job. The traced point is the figure sweep's own: its
// fingerprint equals the Session's for Radix/TCC/64 at one chunk per core.
func TestPerfettoPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	fp := runFingerprint(t, "-app", "Radix", "-protocol", "TCC", "-cores", "64", "-chunks", "1", "-trace", path)
	res, err := scalablebulk.NewSession(1, 1, nil).Result("Radix", "TCC", 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := scalablebulk.FingerprintSHA(res); fp != want {
		t.Errorf("traced fingerprint %s, Session's %s", fp, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidatePerfetto(data); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDoesNotPerturbFaultyRun traces a run with every recovery path and
// the invariant checker on: the fingerprint must equal the untraced run's,
// every JSONL line must parse, and the stream must show the injected faults
// and the squashes they cause.
func TestTraceDoesNotPerturbFaultyRun(t *testing.T) {
	args := []string{"-app", "zipf", "-cores", "8", "-chunks", "2", "-faults", "chaos", "-check"}
	path := filepath.Join(t.TempDir(), "z.jsonl")
	traced := runFingerprint(t, append(args, "-trace", path)...)
	if untraced := runFingerprint(t, args...); traced != untraced {
		t.Errorf("traced fingerprint %s, untraced %s", traced, untraced)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines, faults, squashes int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev struct{ Ev string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v: %s", lines, err, sc.Bytes())
		}
		switch {
		case strings.HasPrefix(ev.Ev, "fault_"):
			faults++
		case ev.Ev == "squash":
			squashes++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if faults == 0 || squashes == 0 {
		t.Errorf("%d lines with %d fault and %d squash events; want both", lines, faults, squashes)
	}
}

// TestBadTraceFlagsRejected: an unknown event kind, a malformed chunk tag and
// any -trace-* filter without -trace each exit 1 before the run.
func TestBadTraceFlagsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.txt")
	for _, args := range [][]string{
		{"-trace", out, "-trace-kind", "nope"},
		{"-trace", out, "-trace-chunk", "3.7"},
		{"-trace", out, "-trace-chunk", "P3.7x"},
		{"-trace-reads"},
		{"-trace-kind", "commit"},
		{"-trace-core", "3"},
		{"-trace-chunk", "P3.7"},
	} {
		if code := runArgs(t, append(args, "-app", "zipf", "-cores", "2", "-chunks", "1")...); code != cliutil.ExitError {
			t.Errorf("%v: exit code %d, want %d", args, code, cliutil.ExitError)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected run left %s behind (stat: %v)", out, err)
	}
}
