// Package protocol is the commit-protocol contract: the Engine interface a
// chunk-commit protocol implements, the processor Tuning it may require, and
// the shared machinery every engine builds on (the commit-deadline constants
// here, the watchdog/ack/trace kernel in the kernel subpackage).
//
// The runnable protocols are one ordered table in internal/system, the only
// package that constructs engines. Adding a protocol (or a variant of one) is
// one row there:
//
//	{
//		Name:           ProtoTCC,
//		Doc:            "Scalable TCC: global TID order, per-directory probe/mark before write-set push (§2.2)",
//		Evaluated:      true,
//		DefaultOptions: tcc.DefaultConfig(),
//		New:            engine(ProtoTCC, tcc.New),
//	},
//
// after which system.Run, the figure sweeps and every CLI's -protocol flag
// accept the name. An engine needs no hook for the invariant checker: the
// kernel's Formed and dir.Env.ApplyCommitWrite report to the dir.Probe, and
// only engines with directory-side occupancy (ScalableBulk's CST) report
// Held and Released themselves. See DESIGN.md §12 for the full contract.
package protocol

import (
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
)

// DefaultCommitDeadline is the shared commit-stall watchdog deadline: an
// attempt still undecided this many cycles after its commit request is
// failed so the processor retries with backoff instead of hanging to the
// MaxCycles guard. It leaves ample headroom over the worst contended
// fault-free formation latency (thousands of cycles at 64 cores) while still
// detecting a wedged attempt long before the 2×10⁹-cycle budget.
const DefaultCommitDeadline event.Time = 200_000

// WatchdogDisabled, assigned to a protocol's CommitDeadline option, disables
// the stall watchdog (event.Time is unsigned, so a sentinel stands in
// for -1).
const WatchdogDisabled event.Time = ^event.Time(0)

// Engine is a chunk-commit protocol engine as the processor and system
// layers consume it: the dir.Protocol message/commit entry points plus the
// diagnostics the CLIs, deadlock dumps and the model checker read. Engines
// are built by a system.Descriptor's constructor over a dir.Env.
type Engine interface {
	dir.Protocol
	// Stats exports the engine's protocol-specific counters (watchdog
	// firings, collision/reservation/recall tallies, ...) keyed by a short
	// stable name. It is read after the run; keys with zero values may be
	// omitted or included freely.
	Stats() map[string]uint64
	// DebugModule renders module i's protocol state for deadlock dumps
	// (system.DeadlockError, crash bundles), or "" if idle.
	DebugModule(i int) string
	// PendingAttempts counts live commit attempts plus directory-side
	// residue (occupancies, pipeline entries, arbiter in-flight slots);
	// zero means the engine is quiescent. The model-checking explorer uses
	// it as a quiescence oracle: a run that finished every chunk must
	// report zero, so leaked directory state that no end-to-end invariant
	// notices still fails the check.
	PendingAttempts() int
}

// Tuning is the processor-model configuration a protocol requires. The
// system layer applies it to every core's proc.Config before the run.
type Tuning struct {
	// ConservativeInv buffers incoming invalidation signatures while a
	// processor awaits its own commit decision (BulkSC's pre-OCI behavior,
	// §3.3), acking only on consumption.
	ConservativeInv bool
	// OCIRecall piggy-backs commit_recall on bulk_inv_ack when an in-flight
	// commit is squashed (ScalableBulk's Optimistic Commit Initiation,
	// §3.3/§3.4). Protocols without OCI leave it off.
	OCIRecall bool
}
