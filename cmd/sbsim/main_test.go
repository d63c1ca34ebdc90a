package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"scalablebulk/internal/cliutil"
)

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
// budget. sbsim refuses it before running anything, locally or on a farm.
func TestSubMillisecondTimeoutRejected(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, "no farm here", http.StatusBadRequest)
	}))
	defer srv.Close()
	for _, mode := range [][]string{nil, {"-server", srv.URL}} {
		code := runArgs(t, append([]string{"-timeout", "500us", "-cores", "2", "-chunks", "1"}, mode...)...)
		if code != cliutil.ExitError {
			t.Errorf("%v: exit code %d, want %d", mode, code, cliutil.ExitError)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("sbsim sent %d request(s) to the farm server", n)
	}
}
