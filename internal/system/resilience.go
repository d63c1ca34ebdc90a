// Execution-resilience layer: structured abort errors for cancellation and
// wall-clock deadlines, panic wrapping with machine context, and a retry
// policy that escalates the cycle budget for transient MaxCycles aborts
// under fault injection. The sweep engine and the CLIs build their crash
// bundles, checkpoint journals and graceful shutdown on these primitives.
package system

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"scalablebulk/internal/event"
	"scalablebulk/internal/rng"
	"scalablebulk/internal/workload"
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
// dump, and the Go stack of the panicking goroutine. RunContext re-panics
// with it so sweep workers can recover one crashing point into a crash
// bundle while the rest of the sweep keeps running.
type RunPanic struct {
	App      string
	Protocol string
	Cores    int
	Cycle    event.Time
	Dump     string // truncated machine dump (MaxDumpLines)
	Stack    string // Go stack at the panic
	Value    any    // the original panic value
	// Flight is the flight recorder's tail (rendered text lines, oldest
	// first) when Config.FlightRecorder was enabled.
	Flight []string
}

func (p *RunPanic) String() string {
	return fmt.Sprintf("system: %s/%s/%d panicked at cycle %d: %v",
		p.App, p.Protocol, p.Cores, p.Cycle, p.Value)
}

// RetryPolicy retries transient aborts: a MaxCycles exhaustion under an
// enabled fault profile means the machine was still live but the fault
// schedule made it slow, so the point is re-run with an escalated cycle
// budget after a bounded, jittered backoff. Deadlocks on fault-free runs and
// cancellation aborts are never retried.
type RetryPolicy struct {
	// MaxAttempts caps total attempts, the first included (≤0 selects 3).
	MaxAttempts int
	// BudgetFactor multiplies MaxCycles on each retry (≤1 selects 4).
	BudgetFactor float64
	// Backoff is the pause before the first retry, doubling each further
	// retry (0 selects 25ms).
	Backoff time.Duration
	// MaxBackoff bounds any single pause (0 selects 2s).
	MaxBackoff time.Duration
	// Jitter adds a uniform extra in [0, Jitter×pause] drawn from a PRNG
	// seeded by the run seed, decorrelating concurrent sweep workers
	// (0 selects 0.5; negative disables).
	Jitter float64
	// Sleep replaces time.Sleep; tests stub it to run instantly.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy returns the policy the soak runner uses: 3 attempts,
// budget ×4 per retry, 25ms base backoff with 50% jitter capped at 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BudgetFactor: 4,
		Backoff: 25 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.5}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BudgetFactor <= 1 {
		p.BudgetFactor = 4
	}
	if p.Backoff == 0 {
		p.Backoff = 25 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RunAttempt records one attempt of a retried run; the history lands in
// Result.Attempts, JSON reports and crash bundles.
type RunAttempt struct {
	Attempt    int        `json:"attempt"`
	MaxCycles  event.Time `json:"max_cycles"`
	BackoffMS  int64      `json:"backoff_ms,omitempty"` // pause before this attempt
	Outcome    string     `json:"outcome"`              // "ok" or the error's first line
	AbortCycle event.Time `json:"abort_cycle,omitempty"`
}

// RetryError reports a run that failed through every attempt RunWithRetry
// was allowed; Unwrap exposes the last attempt's error (so errors.Is still
// matches ErrDeadlock / ErrAborted) and Attempts the full history.
type RetryError struct {
	Attempts []RunAttempt
	Last     error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("system: run failed after %d attempt(s): %v", len(e.Attempts), e.Last)
}

func (e *RetryError) Unwrap() error { return e.Last }

// Retryable reports whether err is a transient abort under cfg: MaxCycles
// exhaustion with a fault profile enabled.
func Retryable(err error, cfg Config) bool {
	var de *DeadlockError
	return errors.As(err, &de) && de.BudgetExhausted && cfg.Faults.Enabled()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// RunWithRetry runs prof under cfg, retrying transient MaxCycles aborts
// (see Retryable) with an escalating cycle budget per pol. Every attempt is
// recorded; a successful result carries the history in Result.Attempts, and
// a final failure returns a *RetryError wrapping the last error.
func RunWithRetry(ctx context.Context, prof workload.Profile, cfg Config, pol RetryPolicy) (*Result, error) {
	pol = pol.withDefaults()
	jitter := rng.New(cfg.Seed*0x9e3779b9 + int64(cfg.Cores))
	budget := cfg.MaxCycles
	var attempts []RunAttempt
	var backedOff time.Duration
	for n := 1; ; n++ {
		run := cfg
		run.MaxCycles = budget
		res, err := RunContext(ctx, prof, run)
		rec := RunAttempt{Attempt: n, MaxCycles: budget, BackoffMS: backedOff.Milliseconds()}
		if err == nil {
			rec.Outcome = "ok"
			res.Attempts = append(attempts, rec)
			return res, nil
		}
		rec.Outcome = firstLine(err.Error())
		var de *DeadlockError
		if errors.As(err, &de) {
			rec.AbortCycle = de.Cycle
		}
		var ae *AbortError
		if errors.As(err, &ae) {
			rec.AbortCycle = ae.Cycle
		}
		attempts = append(attempts, rec)
		if n >= pol.MaxAttempts || !Retryable(err, cfg) || ctx.Err() != nil {
			return nil, &RetryError{Attempts: attempts, Last: err}
		}
		budget = event.Time(float64(budget) * pol.BudgetFactor)
		pause := pol.Backoff << (n - 1)
		if pol.Jitter > 0 {
			pause += time.Duration(jitter.Float64() * pol.Jitter * float64(pause))
		}
		if pause > pol.MaxBackoff {
			pause = pol.MaxBackoff
		}
		backedOff = pause
		if pause > 0 {
			pol.Sleep(pause)
		}
	}
}
