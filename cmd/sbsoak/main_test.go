package main

import (
	"bufio"
	"errors"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"scalablebulk/internal/cliutil"
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
// (a 50-cycle budget, one attempt) over more rounds than it can finish, and
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
		"-maxcycles", "50", "-retries", "1", "-progress", "0",
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
