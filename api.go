// Package scalablebulk is a from-scratch reproduction of "ScalableBulk:
// Scalable Cache Coherence for Atomic Blocks in a Lazy Environment" (Qian,
// Ahn, Torrellas — MICRO 2010): a cycle-level simulator of a chunk-based
// multicore (2D torus, private L1/L2, distributed directories, hardware
// address signatures) running the ScalableBulk commit protocol and the three
// baselines the paper compares against (Scalable TCC, SEQ-PRO, BulkSC), plus
// synthetic models of the paper's 18 SPLASH-2/PARSEC applications and a
// harness that regenerates every figure of the evaluation section.
//
// Quick start:
//
//	prof, _ := scalablebulk.AppByName("Radix")
//	cfg := scalablebulk.DefaultConfig(64, scalablebulk.ProtoScalableBulk)
//	res, err := scalablebulk.Run(prof, cfg)
//	// res.Cycles, res.Breakdown, res.MeanCommitLatency(), ...
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for measured
// results vs the paper.
package scalablebulk

import (
	"context"
	"fmt"
	"strings"

	"scalablebulk/internal/check"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/system"
	"scalablebulk/internal/tracefmt"
	"scalablebulk/internal/workload"
)

// Protocol names (Table 3 of the paper, plus the OCI ablation);
// RegisteredProtocols enumerates them with their descriptions.
const (
	// ProtoScalableBulk is the paper's protocol (package internal/core).
	ProtoScalableBulk = system.ProtoScalableBulk
	// ProtoTCC is the Scalable TCC baseline.
	ProtoTCC = system.ProtoTCC
	// ProtoSEQ is the SEQ-PRO baseline from SRC.
	ProtoSEQ = system.ProtoSEQ
	// ProtoBulkSC is the BulkSC centralized-arbiter baseline.
	ProtoBulkSC = system.ProtoBulkSC
	// ProtoNoOCI is ScalableBulk with Optimistic Commit Initiation
	// disabled — the Figure 4(c) conservative ablation.
	ProtoNoOCI = system.ProtoNoOCI
)

// Protocols lists the four evaluated protocols in the paper's order.
var Protocols = system.Protocols

// ProtocolInfo describes one runnable protocol.
type ProtocolInfo struct {
	// Name is accepted by Config.Protocol.
	Name string
	// Doc is the protocol's one-line description.
	Doc string
	// Evaluated marks the four Table 3 protocols the figure sweeps compare;
	// variants (e.g. the OCI ablation) leave it false.
	Evaluated bool
}

// RegisteredProtocols enumerates every runnable protocol, the paper's four
// in Table 3 order first, variants after: the rows of the protocol table,
// which the CLIs' -protocols listings also read. The conformance,
// determinism and replay suites iterate it.
func RegisteredProtocols() []ProtocolInfo {
	var out []ProtocolInfo
	for _, d := range system.Descriptors {
		out = append(out, ProtocolInfo{Name: d.Name, Doc: d.Doc, Evaluated: d.Evaluated})
	}
	return out
}

// IsProtocol reports whether name is a runnable protocol — the check the
// CLIs run on -protocol flags before building a machine.
func IsProtocol(name string) bool {
	_, ok := system.LookupProtocol(name)
	return ok
}

// Config describes one simulation; DefaultConfig gives the Table 2 machine.
type Config = system.Config

// Result carries everything one run measured: execution time, the
// Useful/CacheMiss/Commit/Squash breakdown, commit latencies, directories
// per commit, squash classification and traffic counters.
type Result = system.Result

// Breakdown is the Figures 7/8 cycle accounting.
type Breakdown = stats.Breakdown

// Profile is a synthetic application model (§5: SPLASH-2 and PARSEC).
type Profile = workload.Profile

// DefaultConfig returns the paper's Table 2 machine configuration for the
// given core count and protocol.
func DefaultConfig(cores int, protocol string) Config {
	return system.DefaultConfig(cores, protocol)
}

// Run simulates one (application, machine, protocol) combination.
func Run(prof Profile, cfg Config) (*Result, error) { return system.Run(prof, cfg) }

// RunScaled divides a whole-problem chunk count evenly across the machine
// (the paper's strong-scaling setup), so speedups compare equal work.
func RunScaled(prof Profile, cfg Config, totalChunks int) (*Result, error) {
	return system.RunScaled(prof, cfg, totalChunks)
}

// --- Resilience layer (DESIGN.md §10) ---

// ErrInvariantViolation marks a run failed by the I1–I5 invariant checker
// (errors.Is); the concrete *InvariantViolationError carries the individual
// violations and the machine dump, and also matches a bare invariant target
// (errors.Is(err, check.I2)).
var ErrInvariantViolation = check.ErrViolation

// InvariantViolationError is the structured invariant-failure report.
type InvariantViolationError = check.ViolationError

// ErrDeadlock marks a run that stopped making progress (errors.Is); the
// concrete *DeadlockError carries the truncated machine dump.
var ErrDeadlock = system.ErrDeadlock

// ErrAborted marks a run stopped by cancellation or a wall-clock deadline
// (errors.Is); the concrete *AbortError carries the cause.
var ErrAborted = system.ErrAborted

// DeadlockError is the structured no-progress abort report.
type DeadlockError = system.DeadlockError

// AbortError is the structured cancellation/deadline abort report,
// distinguishing a withdrawn budget from a deadlock.
type AbortError = system.AbortError

// RunContext is Run with cancellation and the Config.RunTimeout wall-clock
// deadline; aborts surface as *AbortError, deadlocks as *DeadlockError.
func RunContext(ctx context.Context, prof Profile, cfg Config) (*Result, error) {
	return system.RunContext(ctx, prof, cfg)
}

// Splash2 returns the 11 SPLASH-2 application models.
func Splash2() []Profile { return workload.Splash2() }

// Parsec returns the 7 PARSEC application models.
func Parsec() []Profile { return workload.Parsec() }

// Apps returns all 18 application models, SPLASH-2 first.
func Apps() []Profile { return workload.All() }

// AppByName finds an application model by name (e.g. "Radix").
func AppByName(name string) (Profile, bool) { return workload.ByName(name) }

// --- Workload sources (DESIGN.md §14) ---

// WorkloadInfo describes one named workload source.
type WorkloadInfo struct {
	// Name is accepted by Config.Workload and, except for the synthetic
	// default, as an App label.
	Name string
	// Doc is the source's one-line description.
	Doc string
	// Adversarial marks generators aimed at commit-protocol weak spots.
	Adversarial bool
}

// RegisteredWorkloads enumerates every named workload source in table
// order, the synthetic default first: the rows of the workload table, which
// the CLIs' -workloads listings also read. The conformance, determinism and
// differential suites iterate it.
func RegisteredWorkloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, d := range workload.Descriptors {
		out = append(out, WorkloadInfo{Name: d.Name, Doc: d.Doc, Adversarial: d.Adversarial})
	}
	return out
}

// AdoptReplay sets cfg up to replay tr: the recording's core count, seed,
// and measured and warm-up chunks per core, with tr as the workload. It
// returns the label Profile the recording ran under. With this shape a
// replay reproduces the recording bit for bit under its protocol.
func AdoptReplay(cfg *Config, tr *tracefmt.Trace) Profile {
	h := tr.Header
	cfg.Cores, cfg.Seed = h.Threads, h.Seed
	cfg.ChunksPerCore, cfg.WarmupChunks = h.ChunksPerCore, h.WarmupPerCore
	cfg.WorkloadFactory = workload.Replay(tr)
	return Profile{Name: h.App, Suite: "TRACE"}
}

// WorkloadProfile returns the label Profile a named non-synthetic workload
// source runs under (Result.App, golden names, journal keys). Sweep tools use
// it to accept workload names wherever an application name is expected.
func WorkloadProfile(name string) (Profile, bool) { return workload.SourceProfile(name) }

// ResultFingerprint renders every deterministic measurement of a run as one
// canonical string: execution time, the full per-core breakdowns, every
// raw collector sample series (commit latencies, directory counts, queue
// samples, squash classification, failures, nacks) and the traffic counters.
// Two runs of the same (config, seed) must produce byte-identical
// fingerprints regardless of process, goroutine scheduling, or whether the
// result came from a serial call or a parallel sweep — that is the contract
// the determinism tests enforce.
func ResultFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%d cycles=%d committed=%d squashes=%d\n",
		r.App, r.Protocol, r.Cores, r.Cycles, r.ChunksCommitted, r.Squashes)
	fmt.Fprintf(&b, "breakdown useful=%d cachemiss=%d commit=%d squash=%d\n",
		r.Breakdown.Useful, r.Breakdown.CacheMiss, r.Breakdown.Commit, r.Breakdown.Squash)
	for i, pc := range r.PerCore {
		fmt.Fprintf(&b, "core%d useful=%d cachemiss=%d commit=%d squash=%d committed=%d\n",
			i, pc.Useful, pc.CacheMiss, pc.Commit, pc.Squash, r.PerCoreCommitted[i])
	}
	fmt.Fprintf(&b, "commitlat %v\n", r.Coll.CommitLat)
	fmt.Fprintf(&b, "dirstotal %v\n", r.Coll.DirsTotal)
	fmt.Fprintf(&b, "dirswrite %v\n", r.Coll.DirsWrite)
	fmt.Fprintf(&b, "queuesamples %v\n", r.Coll.QueueSamples)
	fmt.Fprintf(&b, "squashes conflict=%d aliasing=%d failures=%d readnacks=%d collcommitted=%d\n",
		r.Coll.SquashTrueConflict, r.Coll.SquashAliasing, r.Coll.CommitFailures,
		r.Coll.ReadNacks, r.Coll.ChunksCommitted)
	fmt.Fprintf(&b, "traffic msgs=%d delivered=%d flithops=%d bykind=%v\n",
		r.Traffic.Messages, r.Traffic.Delivered, r.Traffic.FlitHops, r.Traffic.ByKind)
	return b.String()
}
