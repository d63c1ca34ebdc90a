package main

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"scalablebulk"
	"scalablebulk/internal/cliutil"
	"scalablebulk/internal/explore"
)

// TestMain lets the test binary stand in for the sbsoak command: with
// SBSOAK_RUN_MAIN=1 in its environment it runs run() on its own arguments
// and exits with run()'s code.
func TestMain(m *testing.M) {
	if os.Getenv("SBSOAK_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestFailureThenAbortExitsPointFailures runs a soak whose every point fails
// (a 50-cycle budget) over more rounds than it can finish, and
// sends SIGTERM once the first FAIL line appears. The soak then ends aborted
// with failures on record, and the shared contract says failure beats abort:
// it must exit 3, not the clean-abort 2.
func TestFailureThenAbortExitsPointFailures(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGTERM delivery to a child process")
	}
	cmd := exec.Command(os.Args[0],
		"-apps", "Radix", "-proto", "TCC", "-cores", "8", "-chunks", "2",
		"-rounds", "1000000", "-j", "1", "-faults", "off",
		"-maxcycles", "50", "-progress", "0",
		"-journal", "", "-crashdir", t.TempDir())
	cmd.Env = append(os.Environ(), "SBSOAK_RUN_MAIN=1")
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "FAIL ") {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("soak exited with %v, want exit code %d", err, cliutil.ExitPointFailures)
	}
	if got := exit.ExitCode(); got != cliutil.ExitPointFailures {
		t.Fatalf("failed-then-aborted soak exit code = %d, want %d", got, cliutil.ExitPointFailures)
	}
}

// TestNegativeMaxCyclesRejected: a negative -maxcycles is an error before
// anything runs, in-process and farm mode alike, rather than silently
// meaning the default budget locally and ~1.8e19 cycles on the farm.
func TestNegativeMaxCyclesRejected(t *testing.T) {
	rejectedBeforeRunning(t, []string{"-maxcycles", "-1"}, "sbsoak: -maxcycles must be ≥ 0")
}

// TestSubMillisecondTimeoutRejected: the sweep spec carries -timeout in
// whole milliseconds, so a positive budget under 1 ms would silently mean
// no budget, locally as on the farm, and so would a negative one. Both are
// errors before anything runs.
func TestSubMillisecondTimeoutRejected(t *testing.T) {
	rejectedBeforeRunning(t, []string{"-timeout", "500us"}, "sbsoak: -timeout 500µs is under 1ms")
	rejectedBeforeRunning(t, []string{"-timeout", "-1s"}, "sbsoak: -timeout -1s is negative")
}

// TestJournalWithServerRejected: in farm mode the server owns the journal,
// so a -journal the user names would give no durability at all. sbsoak
// refuses it, pointing at sbserver -journal, before contacting the server
// or creating the file.
func TestJournalWithServerRejected(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "no farm here", http.StatusBadRequest)
	}))
	defer srv.Close()
	journal := filepath.Join(t.TempDir(), "soak.jsonl")
	cmd := exec.Command(os.Args[0],
		"-apps", "Radix", "-proto", "TCC", "-cores", "8", "-chunks", "1",
		"-rounds", "1", "-faults", "off", "-progress", "0", "-crashdir", "",
		"-journal", journal, "-server", srv.URL)
	cmd.Env = append(os.Environ(), "SBSOAK_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != cliutil.ExitError {
		t.Fatalf("exit %v, want code %d", err, cliutil.ExitError)
	}
	if !strings.Contains(stderr.String(), "sbserver -journal") {
		t.Errorf("stderr %q does not point at sbserver -journal", stderr.String())
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("sbsoak sent %d request(s) to the farm server", n)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("journal file: %v, want it not created", err)
	}
}

// rejectedBeforeRunning runs a one-point soak with flags, in-process and in
// farm mode, and fails the test unless each exits 1 with msg on stderr and
// nothing on stdout.
func rejectedBeforeRunning(t *testing.T, flags []string, msg string) {
	t.Helper()
	for _, mode := range [][]string{nil, {"-server", "http://127.0.0.1:1"}} {
		args := append([]string{
			"-apps", "Radix", "-proto", "TCC", "-cores", "8", "-chunks", "1",
			"-rounds", "1", "-j", "1", "-faults", "off",
			"-progress", "0", "-journal", "", "-crashdir", ""}, flags...)
		cmd := exec.Command(os.Args[0], append(args, mode...)...)
		cmd.Env = append(os.Environ(), "SBSOAK_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != cliutil.ExitError {
			t.Fatalf("%v: exit %v, want code %d", mode, err, cliutil.ExitError)
		}
		if !strings.Contains(stderr.String(), msg) {
			t.Errorf("%v: stderr %q lacks %q", mode, stderr.String(), msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a sweep ran before the flag was rejected:\n%s", mode, stdout.String())
		}
	}
}

// TestCheckSpecForWorkloadSourcePoint: a failed point of a workload source
// hands off to the model checker like an application model's does — the
// spec names the source, loads, and explores.
func TestCheckSpecForWorkloadSourcePoint(t *testing.T) {
	p := scalablebulk.Point{App: "zipf", Protocol: scalablebulk.ProtoSEQ, Cores: 2}
	path, err := writeCheckSpec(t.TempDir(), p, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "zipf-SEQ-2.sbcheck.json" {
		t.Fatalf("spec written to %q", path)
	}
	spec, err := explore.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.App != "zipf" {
		t.Fatalf("spec %+v names app %q, want zipf", spec, spec.App)
	}
	opts := explore.DefaultOptions(spec.Proto)
	opts.Spec = spec
	opts.MaxRuns = 50
	rep, err := explore.Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("violation: %s", rep.Violation)
	}
}
