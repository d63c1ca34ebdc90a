// Package cliutil holds small helpers shared by the cmd/ front-ends:
// rendering the protocol table for every CLI's -protocols list flag,
// validating -protocol and -timeout selections before a machine is built, the shared
// process exit-code contract, and the SIGINT/SIGTERM cancellation context
// every long-running tool installs.
package cliutil

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	scalablebulk "scalablebulk"
	"scalablebulk/internal/system"
	"scalablebulk/internal/workload"
)

// Exit codes shared by every CLI (sbsim, sbfig, sbsoak, sbserver, sbworker):
// success, setup/internal error, aborted by signal or deadline, and
// completed-with-point-failures. Failure beats abort so a crashed point is
// never mistaken for a clean Ctrl-C; ExitCode is the one place that rule
// lives.
const (
	ExitOK            = 0
	ExitError         = 1
	ExitAborted       = 2
	ExitPointFailures = 3
)

// SignalContext returns a context canceled on SIGINT/SIGTERM, plus its stop
// function. After stop (or after the first signal) a second signal falls
// back to the default handler and kills the process — the standard
// "graceful once, forceful twice" contract all the CLIs share.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitCode maps a run's outcome to the shared exit-code contract: any point
// failure gives ExitPointFailures even if the run was then aborted, a clean
// abort gives ExitAborted, and a fully completed run gives ExitOK.
func ExitCode(failures int, aborted bool) int {
	switch {
	case failures > 0:
		return ExitPointFailures
	case aborted:
		return ExitAborted
	}
	return ExitOK
}

// SweepExitCode prints one FAIL line per failed point to w (tool prefixes
// the lines, stderr style) and returns the sweep's ExitCode.
func SweepExitCode(w io.Writer, tool string, out *scalablebulk.SweepOutcome) int {
	if w == nil {
		w = io.Discard
	}
	for _, f := range out.Failures {
		fmt.Fprintf(w, "%s: FAIL %s/%s/%d: %v\n",
			tool, f.Point.App, f.Point.Protocol, f.Point.Cores, f.Err)
	}
	return ExitCode(len(out.Failures), out.Aborted)
}

// NewLogger builds the structured logger behind every CLI's -log-format
// flag: "text" (human-readable key=value) or "json" (one JSON object per
// line, for log shippers). An unknown format errors at flag-handling time.
func NewLogger(format string, w io.Writer) (*slog.Logger, error) {
	if w == nil {
		w = os.Stderr
	}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// ProtocolList renders the protocol table as the listing every CLI's
// -protocols flag prints: one line per protocol — evaluated (Table 3)
// entries first, variants after — with its one-line description.
func ProtocolList() string {
	var b strings.Builder
	for _, d := range system.Descriptors {
		kind := "evaluated"
		if !d.Evaluated {
			kind = "variant"
		}
		fmt.Fprintf(&b, "%-22s %-10s %s\n", d.Name, kind, d.Doc)
	}
	return b.String()
}

// CheckProtocol validates one -protocol flag value against the table, so
// a typo fails at flag handling with the full list of registered names
// instead of deep inside system.Run.
func CheckProtocol(name string) error {
	if _, ok := system.LookupProtocol(name); !ok {
		return fmt.Errorf("unknown protocol %q (registered: %s; -protocols describes them)",
			name, strings.Join(system.ProtocolNames(), ", "))
	}
	return nil
}

// WorkloadList renders the workload-source registry for the CLIs'
// -workloads list flag: the synthetic default first, then the adversarial
// family, plus the replay spec syntax.
func WorkloadList() string {
	var b strings.Builder
	for _, d := range workload.Descriptors {
		kind := "default"
		if d.Adversarial {
			kind = "adversarial"
		}
		fmt.Fprintf(&b, "%-14s %-12s %s\n", d.Name, kind, d.Doc)
	}
	fmt.Fprintf(&b, "%-14s %-12s %s\n", "replay:PATH", "trace",
		"replay the recorded workload trace at PATH bit-identically")
	return b.String()
}

// CheckTimeout validates a per-run -timeout budget. A SweepSpec carries it in
// whole milliseconds, so a positive value under 1 ms would silently mean no
// budget at all, and so would a negative one.
func CheckTimeout(d time.Duration) error {
	switch {
	case d < 0:
		return fmt.Errorf("-timeout %v is negative (0 disables the budget)", d)
	case d > 0 && d < time.Millisecond:
		return fmt.Errorf("-timeout %v is under 1ms (0 disables the budget)", d)
	}
	return nil
}
