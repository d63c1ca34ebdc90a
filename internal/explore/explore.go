// Package explore is a systematic-concurrency-testing model checker for the
// registered commit protocols: it drives small configurations (2–4 cores ×
// 2–3 chunks) through the mesh-message interleavings a protocol can
// experience, checking the I1–I5 invariants, committed-write serializability
// and quiescence at every step, and emitting a minimized, replayable
// counterexample schedule when anything breaks.
//
// The state space is the tree of scheduling choices: whenever undelivered
// commit-protocol messages are pending and the machine has nothing nearer to
// do, the explorer picks which pending message to deliver next. A schedule
// is the sequence of choice indices; re-executing a schedule reproduces the
// run bit-identically because everything else in the simulator is
// deterministic (the same property the fault interposer's replayability
// rests on). Exploration is depth-first over schedule prefixes with a
// state-digest visited set, DPOR-style partial-order reduction over
// statically commuting deliveries, and depth/run budgets with honest
// "bounded-exhaustive" reporting when a budget trips. See DESIGN.md §13.
package explore

import (
	"fmt"
	"strings"

	"scalablebulk/internal/check"
	"scalablebulk/internal/event"
	"scalablebulk/internal/workload"
)

// Spec pins everything a run needs to be reconstructed: the machine shape
// and the workload. It is embedded verbatim in schedule files, so a recorded
// counterexample replays against the exact configuration that produced it.
// DefaultSpec is the only home of its defaults.
type Spec struct {
	Proto  string `json:"proto"`
	Cores  int    `json:"cores"`
	Chunks int    `json:"chunks"` // chunks per core
	Seed   int64  `json:"seed"`
	Warmup int    `json:"warmup"` // warm-up chunks per core
	// App names the workload the way a sweep point does: an application
	// model (the checking micro-workloads MCConflict and MCFree included)
	// or a registered workload source (workload.ResolveApp).
	App string `json:"app"`
	// Horizon is the engine-event lookahead that separates "let the machine
	// compute" from "open a scheduling choice point" (see run.go). It is
	// part of the schedule semantics and therefore of the Spec.
	Horizon event.Time `json:"horizon"`
	// MaxCycles bounds one run's simulated time.
	MaxCycles event.Time `json:"max_cycles"`
	// Unordered lifts the per-(src,dst) FIFO delivery constraint, exploring
	// reorderings of same-pair messages too. Off by default: the torus
	// routes same-pair messages over the identical dimension-order path and
	// each later message queues behind the earlier one's link reservations,
	// so the real network is per-pair FIFO — unordered mode over-approximates
	// it (useful against protocols that should not depend on ordering, e.g.
	// TCC's phase-1/phase-2 atomicity argument explicitly does).
	Unordered bool `json:"unordered,omitempty"`
	// MaxSkips is the fairness bound: a pending delivery that has been
	// enabled-but-passed-over this many times becomes the only enabled
	// choice. Without it the DFS converges on starvation schedules (never
	// deliver message X, retry forever) and reports vacuous livelocks no
	// real network exhibits. Negative means unlimited; 0 is invalid.
	MaxSkips int `json:"max_skips"`
}

// DefaultSpec returns the standard tiny checking configuration for a
// protocol: 2 cores × 2 chunks on the forced-conflict micro-workload.
//
// The horizon, 8192 cycles, comfortably exceeds every near event the
// machine generates between deliveries (memory at +300, capped commit retry
// backoff under ~2k) while staying far below the 200k commit watchdog, so
// watchdogs fire only when no message is in flight — deterministic stall
// manifestation. A fairness bound of 3 skips keeps the 2-core × 2-chunk
// space fully exhaustible for every registered protocol in minutes while
// still reordering every pair of concurrent commit messages; raise it for a
// stronger (slower) adversary.
func DefaultSpec(proto string) Spec {
	return Spec{
		Proto: proto, Cores: 2, Chunks: 2, Seed: 1, Warmup: 2,
		App:       "MCConflict",
		Horizon:   8192,
		MaxCycles: 500_000_000,
		MaxSkips:  3,
	}
}

// validate rejects a spec no run could honor: no protocol, an unknown App,
// zero cores, chunks, horizon or cycle budget, or a fairness bound of 0.
func (s Spec) validate() error {
	if s.Proto == "" || s.Cores <= 0 || s.Chunks <= 0 || s.Horizon == 0 || s.MaxCycles == 0 {
		return fmt.Errorf("incomplete spec (need proto, and positive cores, chunks, horizon and max_cycles)")
	}
	if s.MaxSkips == 0 {
		return fmt.Errorf("max_skips 0 would force every choice; a negative value means unlimited")
	}
	_, _, err := workload.ResolveApp(s.App)
	return err
}

// Options configures an exploration. DefaultOptions is the only home of its
// defaults; every budget must be positive.
type Options struct {
	Spec
	// MaxDepth bounds the scheduling choice steps of one run; exceeding it
	// reports a livelock (no quiescence within the bound). It must be far
	// above any healthy run's depth — see DefaultOptions.
	MaxDepth int
	// MaxRuns bounds the number of schedules executed; hitting it makes the
	// exploration bounded rather than exhaustive.
	MaxRuns int
	// MaxStates bounds the visited-digest set; hitting it likewise.
	MaxStates int
	// NoReduce disables partial-order reduction and explores every enabled
	// delivery at every choice point (the exhaustive cross-check for the
	// reduction's soundness).
	NoReduce bool
}

// DefaultOptions returns the standard budget for proto: deep enough that a
// healthy 2×2 run never trips MaxDepth, large enough that the default 2×2
// space exhausts for every registered protocol (the CI smoke passes smaller
// budgets and accepts the "bounded" outcome).
func DefaultOptions(proto string) Options {
	return Options{
		Spec:      DefaultSpec(proto),
		MaxDepth:  2000,
		MaxRuns:   150_000,
		MaxStates: 500_000,
	}
}

// Violation kinds a run can end with.
const (
	KindInvariant  = "invariant"  // an I1–I5 invariant broke (check package)
	KindDeadlock   = "deadlock"   // no events, no pending messages, work left
	KindLivelock   = "livelock"   // state recurrence or depth/cycle bound hit
	KindDivergence = "divergence" // committed writes differ from the reference schedule
	KindQuiescence = "quiescence" // protocol state left over after completion
)

// Violation describes why a schedule failed.
type Violation struct {
	Kind string `json:"kind"`
	// Step is the choice step at which the violation was detected.
	Step int    `json:"step"`
	Msg  string `json:"msg"`
	// Invariants carries the individual checker violations for
	// KindInvariant.
	Invariants []check.Violation `json:"invariants,omitempty"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s at step %d: %s", v.Kind, v.Step, v.Msg)
}

// firstInvariant returns the invariant of the first checker violation, or 0.
func (v *Violation) firstInvariant() check.Invariant {
	if len(v.Invariants) > 0 {
		return v.Invariants[0].Inv
	}
	return 0
}

// sameFailure reports whether b reproduces a's failure class: the same kind,
// and for invariant violations the same first invariant. Minimization uses
// it so shrinking cannot wander onto a different bug.
func sameFailure(a, b *Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.firstInvariant() == b.firstInvariant()
}

// Report is the exploration result — crash-bundle-style, JSON-serializable.
type Report struct {
	Spec    Spec   `json:"spec"`
	Outcome string `json:"outcome"` // "exhausted", "bounded", or "violation"
	// BoundHit names the budget that tripped for "bounded".
	BoundHit  string     `json:"bound_hit,omitempty"`
	Runs      int        `json:"runs"`    // schedules executed
	Deepest   int        `json:"deepest"` // longest run in choice steps
	States    int        `json:"states"`  // distinct choice-point digests
	Pruned    int        `json:"pruned"`  // choice points skipped via the visited set
	Reduced   bool       `json:"reduced"` // partial-order reduction was on
	Violation *Violation `json:"violation,omitempty"`
	// Schedule is the minimized counterexample (replayable).
	Schedule *Schedule `json:"schedule,omitempty"`
	// MinimizedFrom is the failing schedule's length before minimization.
	MinimizedFrom int `json:"minimized_from,omitempty"`
	// Dump is the machine state at the violation; Flight the flight
	// recorder's tail (oldest first).
	Dump   string   `json:"dump,omitempty"`
	Flight []string `json:"flight,omitempty"`
}

// Clean reports whether the exploration found no violation.
func (r *Report) Clean() bool { return r.Violation == nil }

// Summary renders a one-paragraph human summary.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %dc×%dch: %s (%d runs, %d states, deepest %d",
		r.Spec.Proto, r.Spec.Cores, r.Spec.Chunks, r.Outcome, r.Runs, r.States, r.Deepest)
	if r.Pruned > 0 {
		fmt.Fprintf(&b, ", %d pruned", r.Pruned)
	}
	fmt.Fprintf(&b, ")")
	if r.BoundHit != "" {
		fmt.Fprintf(&b, " [budget: %s]", r.BoundHit)
	}
	if r.Violation != nil {
		fmt.Fprintf(&b, "\n  violation: %s", r.Violation)
		if r.Schedule != nil {
			fmt.Fprintf(&b, "\n  counterexample: %d choice(s) (minimized from %d): %v",
				len(r.Schedule.Choices), r.MinimizedFrom, r.Schedule.Choices)
		}
	}
	return b.String()
}

// Explore runs the model checker over opts and returns the report. It is
// deterministic: the same options always explore the same schedules in the
// same order and return the same report.
func Explore(opts Options) (*Report, error) {
	if err := opts.Spec.validate(); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if opts.MaxDepth <= 0 || opts.MaxRuns <= 0 || opts.MaxStates <= 0 {
		return nil, fmt.Errorf("explore: budgets must be positive (depth %d, runs %d, states %d)",
			opts.MaxDepth, opts.MaxRuns, opts.MaxStates)
	}
	e := &explorer{opts: opts}
	return e.run()
}

// explorer is one exploration's mutable state.
type explorer struct {
	opts    Options
	visited map[uint64]bool // expanded choice-point digests
	pruned  int
	runs    int
	deepest int

	// reference outcome (default schedule): committed-write multiset.
	refWrites map[check.WriteKey]int
}

// run is the DFS driver: execute schedule prefixes, enqueue unexplored
// branches, stop at the first violation (minimizing it) or when the prefix
// stack and budgets allow no more work.
func (e *explorer) run() (*Report, error) {
	e.visited = make(map[uint64]bool)
	rep := &Report{Spec: e.opts.Spec, Reduced: !e.opts.NoReduce}

	// Reference run: the all-default schedule fixes the committed-write
	// multiset every other schedule must serialize to.
	ref, err := e.execute(nil, true)
	if err != nil {
		return nil, err
	}
	e.runs++
	e.refWrites = ref.writes
	if ref.violation != nil {
		return e.fail(rep, ref)
	}

	// DFS over schedule prefixes. The stack is LIFO so exploration digs
	// deep before wide, keeping the prefix cache-warm in the visited set.
	stack := [][]int{}
	e.expand(ref, 0, &stack)
	for len(stack) > 0 {
		if e.runs >= e.opts.MaxRuns {
			rep.BoundHit = "max runs"
			break
		}
		if len(e.visited) >= e.opts.MaxStates {
			rep.BoundHit = "max states"
			break
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out, err := e.execute(prefix, true)
		if err != nil {
			return nil, err
		}
		e.runs++
		if out.violation != nil {
			return e.fail(rep, out)
		}
		if div := e.checkDivergence(out); div != nil {
			out.violation = div
			return e.fail(rep, out)
		}
		e.expand(out, len(prefix), &stack)
	}

	rep.Runs = e.runs
	rep.Deepest = e.deepest
	rep.States = len(e.visited)
	rep.Pruned = e.pruned
	if rep.BoundHit == "" {
		rep.Outcome = "exhausted"
	} else {
		rep.Outcome = "bounded"
	}
	return rep, nil
}

// expand enqueues the unexplored branches of out's choice points at depth ≥
// from (shallower points were expanded by the run that created the prefix).
// A choice point whose state digest was already expanded anywhere in the
// tree is pruned: the same time-free machine state yields the same subtree.
func (e *explorer) expand(out *outcome, from int, stack *[][]int) {
	for d := from; d < len(out.points); d++ {
		pt := out.points[d]
		if e.visited[pt.digest] {
			e.pruned++
			continue
		}
		e.visited[pt.digest] = true
		for i := len(pt.branches) - 1; i >= 0; i-- {
			alt := pt.branches[i]
			if alt == out.choices[d] {
				continue
			}
			prefix := make([]int, d+1)
			copy(prefix, out.choices[:d])
			prefix[d] = alt
			*stack = append(*stack, prefix)
		}
	}
}

// checkDivergence compares a completed run's committed writes against the
// reference schedule's: the multiset is a pure function of (profile, seed,
// chunk count) under a serializable memory model, so any difference means a
// schedule changed which writes committed — lost, duplicated or
// misattributed updates.
func (e *explorer) checkDivergence(out *outcome) *Violation {
	if diff := diffWrites(e.refWrites, out.writes); diff != "" {
		return &Violation{
			Kind: KindDivergence, Step: len(out.choices),
			Msg: "committed-write multiset differs from the default schedule:" + diff,
		}
	}
	return nil
}

// fail minimizes the failing schedule and builds the violation report.
func (e *explorer) fail(rep *Report, out *outcome) (*Report, error) {
	rep.Runs = e.runs
	rep.Deepest = e.deepest
	rep.States = len(e.visited)
	rep.Pruned = e.pruned
	rep.Outcome = "violation"
	rep.Violation = out.violation
	rep.Dump = out.dump
	rep.Flight = out.flight
	rep.MinimizedFrom = len(out.choices)

	min, minOut := e.minimize(out)
	if minOut != nil {
		// Report the minimized run's view of the failure (same class, and
		// its dump shows the shortest path to it).
		rep.Violation = minOut.violation
		rep.Dump = minOut.dump
		rep.Flight = minOut.flight
		rep.Schedule = e.schedule(min, minOut)
	} else {
		rep.Schedule = e.schedule(out.choices, out)
	}
	return rep, nil
}

// schedule builds the replayable schedule file content for choices/out.
func (e *explorer) schedule(choices []int, out *outcome) *Schedule {
	s := &Schedule{
		Version: ScheduleVersion,
		Spec:    e.opts.Spec,
		Choices: append([]int(nil), choices...),
		Expect: &Expect{
			Digest: out.digest,
			Steps:  len(out.choices),
		},
	}
	if out.violation != nil {
		s.Expect.Kind = out.violation.Kind
		s.Expect.Invariant = int(out.violation.firstInvariant())
	}
	return s
}

// diffWrites summarizes the first differences between two write multisets
// (same shape as the differential suite's comparison); "" when equal.
func diffWrites(a, b map[check.WriteKey]int) string {
	var out string
	n := 0
	for k, va := range a {
		if vb := b[k]; va != vb && n < 5 {
			out += fmt.Sprintf(" line %#x by core %d: %d vs %d;", uint64(k.Line), k.Writer, va, vb)
			n++
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok && n < 5 {
			out += fmt.Sprintf(" line %#x by core %d: absent vs %d;", uint64(k.Line), k.Writer, vb)
			n++
		}
	}
	return out
}
