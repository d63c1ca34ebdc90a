// Typed violation reporting: each recorded violation names the invariant it
// breaks, and the fold-up error is a structured errors.Is/As target — callers
// assert on invariant identity, never on message text.
package check

import (
	"errors"
	"fmt"
	"strings"
)

// Invariant identifies which of the checker's invariants a violation breaks.
type Invariant int

const (
	// I1 is CST occupancy accounting (held once per attempt, released only
	// if held, nothing held at end of run).
	I1 Invariant = 1 + iota
	// I2 is program order: in-order, exactly-once commits, each preceded by
	// a request and a group formation.
	I2
	// I3 is invalidation pairing: every delivered ack answers a real
	// invalidation.
	I3
	// I4 is liveness: every processor reaches its full chunk target.
	I4
	// I5 is write visibility: directory writes only from processors that
	// reached a serialization point.
	I5
)

// String renders the conventional invariant name ("I1" … "I5").
func (i Invariant) String() string {
	if i < I1 || i > I5 {
		return fmt.Sprintf("I?(%d)", int(i))
	}
	return fmt.Sprintf("I%d", int(i))
}

// Violation is one recorded invariant break.
type Violation struct {
	Inv Invariant `json:"invariant"`
	Msg string    `json:"msg"`
}

func (v Violation) String() string { return v.Inv.String() + ": " + v.Msg }

// ErrViolation marks any invariant-checker failure; test with errors.Is.
// The concrete *ViolationError carries the individual violations and, when
// the system layer produced it, a machine dump.
var ErrViolation = errors.New("invariant violated")

// ViolationError folds a run's violations into one error. It unwraps to
// ErrViolation, and Is additionally matches a bare Invariant target, so
// errors.Is(err, check.I2) asserts "some I2 violation occurred".
type ViolationError struct {
	Violations []Violation
	// Dropped counts violations past the recording cap.
	Dropped int
	// Dump is the machine state at the end of the run (stuck processors +
	// protocol module state), attached by the system layer.
	Dump string
}

func (e *ViolationError) Error() string {
	n := len(e.Violations) + e.Dropped
	s := fmt.Sprintf("check: %d invariant violation(s): %s", n, e.Violations[0])
	if n > 1 {
		s += fmt.Sprintf(" (and %d more)", n-1)
	}
	if e.Dump != "" {
		s += "\nmachine state:\n" + e.Dump
	}
	return s
}

// Unwrap lets errors.Is(err, ErrViolation) match.
func (e *ViolationError) Unwrap() error { return ErrViolation }

// Is matches a bare Invariant target: errors.Is(err, check.I1) holds when
// any recorded violation is an I1 break.
func (e *ViolationError) Is(target error) bool {
	inv, ok := target.(Invariant)
	if !ok {
		return false
	}
	for _, v := range e.Violations {
		if v.Inv == inv {
			return true
		}
	}
	return false
}

// Error lets a bare Invariant be used as an errors.Is target.
func (i Invariant) Error() string { return "invariant " + i.String() + " violated" }

// Render lists every violation, one per line.
func (e *ViolationError) Render() string {
	var b strings.Builder
	for _, v := range e.Violations {
		fmt.Fprintln(&b, v)
	}
	if e.Dropped > 0 {
		fmt.Fprintf(&b, "... (%d more violations dropped)\n", e.Dropped)
	}
	return b.String()
}
