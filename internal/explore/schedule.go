// Replayable schedule files: a Schedule pins the machine spec and the choice
// sequence; Replay re-executes it bit-identically and verifies the recorded
// expectation. Counterexamples, the regression corpus under
// testdata/schedules/, and sbsoak escalation stubs all use this format.
package explore

import (
	"encoding/json"
	"fmt"
	"os"
)

// ScheduleVersion is bumped whenever the schedule format or semantics
// change (spec fields, choice encoding, horizon policy, digest composition).
const ScheduleVersion = 2

// Expect records what replaying the schedule must reproduce. For a
// counterexample: the violation kind (and invariant); for a clean schedule
// (regression corpus): the final-state digest. A zero Expect just replays
// without verification.
type Expect struct {
	// Kind is the expected violation kind, "" for a clean run.
	Kind string `json:"kind,omitempty"`
	// Invariant is the expected first invariant (1–5) for Kind "invariant".
	Invariant int `json:"invariant,omitempty"`
	// Digest is the expected final-state digest for clean runs (0 skips the
	// comparison — e.g. hand-written schedule stubs).
	Digest uint64 `json:"digest,omitempty"`
	// Steps is the expected total choice-step count (0 skips).
	Steps int `json:"steps,omitempty"`
}

// Schedule is the on-disk replay format (JSON).
type Schedule struct {
	Version int     `json:"version"`
	Spec    Spec    `json:"spec"`
	Choices []int   `json:"choices"`
	Expect  *Expect `json:"expect,omitempty"`
	// Note is a free-form provenance line ("minimized counterexample for
	// ...", "regression: PR 1 seqpro ghost occupancy", ...).
	Note string `json:"note,omitempty"`
}

// LoadSchedule reads and validates a schedule file. Spec fields the file
// omits keep their DefaultSpec values.
func LoadSchedule(path string) (*Schedule, error) {
	s := &Schedule{Spec: DefaultSpec("")}
	if err := load(path, s, &s.Spec); err != nil {
		return nil, err
	}
	if s.Version != ScheduleVersion {
		return nil, fmt.Errorf("explore: %s: schedule version %d, want %d", path, s.Version, ScheduleVersion)
	}
	return s, nil
}

// Save writes the schedule as indented JSON.
func (s *Schedule) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReplayResult is one schedule re-execution's outcome.
type ReplayResult struct {
	// Violation is nil for a clean run.
	Violation *Violation
	// Digest is the final-state digest of a clean run.
	Digest uint64
	// Steps is the total choice steps taken.
	Steps  int
	Dump   string
	Flight []string
}

// Replay re-executes the schedule and, when it carries an expectation,
// verifies the outcome reproduces it bit-identically: same violation kind
// and invariant, or same final-state digest and step count. A mismatch is
// returned as an error — the schedule no longer means what it was recorded
// to mean (a protocol change altered behavior under this interleaving).
func (s *Schedule) Replay() (*ReplayResult, error) {
	opts := Options{Spec: s.Spec, MaxDepth: DefaultOptions(s.Spec.Proto).MaxDepth}
	e := &explorer{opts: opts}
	if s.Expect != nil && s.Expect.Kind == KindDivergence {
		// Divergence is relative to the default schedule's committed-write
		// multiset: re-derive the reference before replaying.
		ref, err := e.execute(nil, false)
		if err != nil {
			return nil, err
		}
		if ref.violation != nil {
			return nil, fmt.Errorf("explore: reference run failed (%s); cannot verify divergence", ref.violation)
		}
		e.refWrites = ref.writes
	}
	out, err := e.execute(s.Choices, false)
	if err != nil {
		return nil, err
	}
	if out.violation == nil && e.refWrites != nil {
		out.violation = e.checkDivergence(out)
	}
	rr := &ReplayResult{
		Violation: out.violation, Digest: out.digest, Steps: len(out.choices),
		Dump: out.dump, Flight: out.flight,
	}
	if s.Expect == nil {
		return rr, nil
	}
	want := s.Expect
	if want.Kind == "" {
		if out.violation != nil {
			return rr, fmt.Errorf("explore: replay expected a clean run, got %s", out.violation)
		}
		if want.Digest != 0 && out.digest != want.Digest {
			return rr, fmt.Errorf("explore: replay final-state digest %#x, recorded %#x: the run is no longer bit-identical",
				out.digest, want.Digest)
		}
		if want.Steps != 0 && len(out.choices) != want.Steps {
			return rr, fmt.Errorf("explore: replay took %d choice steps, recorded %d", len(out.choices), want.Steps)
		}
		return rr, nil
	}
	if out.violation == nil {
		return rr, fmt.Errorf("explore: replay expected a %s violation, got a clean run", want.Kind)
	}
	if out.violation.Kind != want.Kind {
		return rr, fmt.Errorf("explore: replay violation kind %q, recorded %q", out.violation.Kind, want.Kind)
	}
	if want.Invariant != 0 && int(out.violation.firstInvariant()) != want.Invariant {
		return rr, fmt.Errorf("explore: replay broke %v, recorded I%d",
			out.violation.firstInvariant(), want.Invariant)
	}
	return rr, nil
}
