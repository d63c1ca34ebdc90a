// Execution-resilience layer: structured abort errors for cancellation and
// wall-clock deadlines, and panic wrapping with machine context. The sweep
// engine and the CLIs build their crash bundles, checkpoint journals and
// graceful shutdown on these primitives.
package system

import (
	"errors"
	"fmt"

	"scalablebulk/internal/event"
)

// ctxPollInterval is how many executed events pass between cancellation /
// deadline checks in the event loop — frequent enough that a 64-core run
// reacts to SIGTERM in well under a millisecond, rare enough that the check
// is invisible in profiles.
const ctxPollInterval = 4096

// ErrAborted marks a run stopped by cancellation or a wall-clock deadline —
// the machine was live, the caller just withdrew its budget. Test with
// errors.Is; the concrete *AbortError carries the cause.
var ErrAborted = errors.New("simulation aborted")

// AbortError reports a cancellation or deadline abort, as opposed to a
// *DeadlockError (the machine stopped making progress). Cause is
// context.Canceled for cancellation and context.DeadlineExceeded for either
// the context's deadline or Config.RunTimeout.
type AbortError struct {
	App      string
	Protocol string
	Cores    int
	Cycle    event.Time // simulated time reached when the run was aborted
	Cause    error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("system: %s/%s/%d aborted at cycle %d: %v",
		e.App, e.Protocol, e.Cores, e.Cycle, e.Cause)
}

// Unwrap lets errors.Is match both ErrAborted and the context cause.
func (e *AbortError) Unwrap() []error { return []error{ErrAborted, e.Cause} }

// RunPanic wraps a panic that escaped a simulation with the machine context
// at the moment of failure: the simulated cycle reached, a truncated machine
// dump, and the Go stack of the panicking goroutine. BuildFrom and
// RunContext re-panic with it so sweep workers can recover one crashing
// point into a crash bundle while the rest of the sweep keeps running.
type RunPanic struct {
	App      string
	Protocol string
	Cores    int
	Cycle    event.Time
	Dump     string // truncated machine dump (MaxDumpLines)
	Stack    string // Go stack at the panic
	Value    any    // the original panic value
}

func (p *RunPanic) String() string {
	return fmt.Sprintf("system: %s/%s/%d panicked at cycle %d: %v",
		p.App, p.Protocol, p.Cores, p.Cycle, p.Value)
}
