// Package system assembles and runs the full simulated machine of Table 2:
// 32 or 64 tiles on a 2D torus, each with a 1-IPC core, private 32KB L1 and
// 512KB L2, and a directory module, under any commit protocol of the table in
// protocols.go (the four Table 3 protocols and the OCI-off ablation).
package system

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"strings"
	"time"

	"scalablebulk/internal/cache"
	"scalablebulk/internal/check"
	"scalablebulk/internal/dir"
	"scalablebulk/internal/event"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/proc"
	"scalablebulk/internal/protocol"
	"scalablebulk/internal/stats"
	"scalablebulk/internal/trace"
	"scalablebulk/internal/workload"
)

// Config describes one simulation (defaults are Table 2).
type Config struct {
	Cores         int
	Protocol      string
	ChunksPerCore int
	// WarmupChunks per core are pre-touched into the caches, page table
	// and directory sharer lists before timing starts, standing in for
	// the billions of instructions a real application executes before the
	// measured region.
	WarmupChunks int
	Seed         int64

	// Workload selects the chunk-stream source by spec: "" or
	// "synthetic" for the default application models, an adversarial
	// generator's name, or "replay:PATH" for a recorded trace. The spec is
	// part of the run's identity (journal config hashes cover it).
	Workload string
	// WorkloadFactory, when non-nil, overrides Workload with a directly
	// injected source factory — how the trace recorder interposes on a run
	// and how tests feed hand-built sources. Not covered by config hashes;
	// journaled runs should use Workload specs.
	WorkloadFactory workload.Factory

	// Contention models per-link occupancy. The Table 2 latencies are
	// constants: mesh.LinkLatency, dir.LookupLatency and dir.MemLatency.
	Contention bool

	L1, L2 cache.Config

	// ProtoOptions is the selected protocol's typed option block (e.g.
	// core.Config for ScalableBulk), used as written: start from the
	// protocol row's DefaultOptions to change one field. Nil selects
	// DefaultOptions; a wrong concrete type is an error at Run.
	ProtoOptions any

	// MaxCycles aborts a run that exceeds this time (deadlock guard).
	MaxCycles event.Time

	// RunTimeout, when nonzero, aborts a run whose wall-clock time exceeds
	// it with an *AbortError (Cause context.DeadlineExceeded). Purely a
	// budget: it cannot perturb the results of a run that completes.
	RunTimeout time.Duration

	// Faults, when non-nil and enabled, interposes the seeded fault
	// injector on every network delivery.
	Faults *fault.Profile
	// FaultSeed seeds the injector's PRNG; zero reuses Seed. One
	// (profile, seed) pair replays bit-identically.
	FaultSeed int64
	// Check wires the online invariant checker into the run; violations
	// turn into a run error. Costs a few percent of runtime.
	Check bool

	// TraceSink, when non-nil, receives every structured lifecycle, NoC and
	// fault event of the run (package trace), read-path messages included;
	// wrap it in a trace.Filter to drop those. A flight recorder is a
	// trace.Ring passed here. The sink is closed by the caller, not by Run:
	// a caller may reuse one sink across runs. Tracing observes the run
	// without perturbing it — fingerprints are bit-identical with and
	// without a sink.
	TraceSink trace.Sink
}

// DefaultConfig returns the Table 2 machine.
func DefaultConfig(cores int, protocol string) Config {
	return Config{
		Cores:         cores,
		Protocol:      protocol,
		ChunksPerCore: 64,
		WarmupChunks:  64,
		Seed:          1,
		Contention:    true,
		L1:            cache.Config{SizeBytes: 32 << 10, Assoc: 4},
		L2:            cache.Config{SizeBytes: 512 << 10, Assoc: 8},
		MaxCycles:     2_000_000_000,
	}
}

// Options returns the option block cfg's protocol runs with:
// cfg.ProtoOptions, or the protocol row's DefaultOptions when that is nil
// (nil for an unknown protocol).
func Options(cfg Config) any {
	if cfg.ProtoOptions != nil {
		return cfg.ProtoOptions
	}
	if d, ok := LookupProtocol(cfg.Protocol); ok {
		return d.DefaultOptions
	}
	return nil
}

// ErrDeadlock marks a run that stopped making progress; test for it with
// errors.Is. The concrete *DeadlockError carries the machine dump.
var ErrDeadlock = errors.New("simulation deadlocked")

// DeadlockError is the structured abort report: what ran, why it stopped,
// and a dump of every stuck processor plus the protocol engine's per-module
// state.
type DeadlockError struct {
	App      string
	Protocol string
	Cores    int
	Cycle    event.Time
	Reason   string // "event queue empty" or "exceeded MaxCycles=N"
	Dump     string // per-processor pipeline state + protocol module state
	// BudgetExhausted marks a MaxCycles abort (as opposed to an empty event
	// queue): the machine may still have been live. A run is deterministic,
	// so re-running it with a larger MaxCycles replays the same prefix and
	// carries on — there is nothing to retry.
	BudgetExhausted bool
}

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("system: %s/%s/%d deadlocked at cycle %d (%s)",
		e.App, e.Protocol, e.Cores, e.Cycle, e.Reason)
	if e.Dump != "" {
		s += "\n" + e.Dump
	}
	return s
}

// Unwrap lets errors.Is(err, ErrDeadlock) match.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// MaxDumpLines bounds the machine dump embedded in DeadlockErrors and crash
// bundles: a 64-core dump (one line per stuck processor plus per-module
// protocol state) is truncated past this many lines with an elided-line
// count, so error logs and crash bundles stay small.
const MaxDumpLines = 48

// truncateLines caps s at max lines, appending how many were elided.
func truncateLines(s string, max int) string {
	lines := strings.Split(s, "\n")
	if len(lines) <= max {
		return s
	}
	return strings.Join(lines[:max], "\n") +
		fmt.Sprintf("\n... (%d more lines elided)", len(lines)-max)
}

// dumpMachine renders the stuck processors and the protocol's per-module
// state, truncated to MaxDumpLines.
func dumpMachine(procs []*proc.Proc, proto protocol.Engine) string {
	var b strings.Builder
	for _, p := range procs {
		if !p.Done() {
			fmt.Fprintln(&b, p.DebugState())
		}
	}
	for i := 0; i < len(procs); i++ {
		if s := proto.DebugModule(i); s != "" {
			fmt.Fprintln(&b, s)
		}
	}
	return truncateLines(strings.TrimRight(b.String(), "\n"), MaxDumpLines)
}

// Result is everything a run measured. Its JSON encoding is the restorable
// subset the checkpoint journal persists and the farm ships: every field any
// figure reduction or ResultFingerprint reads.
type Result struct {
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	Cores    int    `json:"cores"`

	// Cycles is the execution time: the last core's finish time.
	Cycles event.Time `json:"cycles"`
	// Breakdown sums every core's cycle accounting (Figures 7/8).
	Breakdown stats.Breakdown `json:"breakdown"`
	// PerCore keeps the individual accountings.
	PerCore []stats.Breakdown `json:"per_core"`

	ChunksCommitted uint64 `json:"chunks_committed"`
	Squashes        int    `json:"squashes"`
	// PerCoreCommitted is each core's committed-chunk count, in core order.
	PerCoreCommitted []int `json:"per_core_committed"`

	Coll    *stats.Collector `json:"collector"`
	Traffic mesh.Stats       `json:"traffic"`
	// ProtoStats is a copy of the protocol engine's Stats() taken at Finish
	// (protocol-specific diagnostics such as failure-cause counters). A
	// Result is plain data: it holds no engine, so it keeps no machine
	// reachable. ProtoStats is run-scoped: it is not journaled, sent over
	// the farm wire or fingerprinted, so a restored Result has nil
	// ProtoStats.
	ProtoStats map[string]uint64 `json:"-"`

	// Faults holds the injector's counters when Config.Faults was enabled.
	Faults *fault.Stats `json:"faults,omitempty"`
	// Checked reports whether the invariant checker ran (and found nothing:
	// a run with violations returns an error instead).
	Checked bool `json:"checked,omitempty"`

	// RingResidency is the calendar ring's retained backing capacity at the
	// end of the run. Execution-only observability, excluded from
	// fingerprints and not persisted.
	RingResidency uint64 `json:"-"`
}

// MeanCommitLatency is a convenience accessor (Figure 13).
func (r *Result) MeanCommitLatency() float64 { return r.Coll.MeanCommitLatency() }

// Validate cross-checks the run's accounting invariants: every commit has a
// latency sample and a directory-count sample, the per-core breakdowns sum
// to the machine breakdown, and no core out-ran the final time.
func (r *Result) Validate() error {
	if n := uint64(len(r.Coll.CommitLat)); n != r.ChunksCommitted {
		return fmt.Errorf("%d commits but %d latency samples", r.ChunksCommitted, n)
	}
	if n := uint64(len(r.Coll.DirsTotal)); n != r.ChunksCommitted {
		return fmt.Errorf("%d commits but %d directory samples", r.ChunksCommitted, n)
	}
	var sum stats.Breakdown
	for _, b := range r.PerCore {
		sum.Add(b)
	}
	if sum != r.Breakdown {
		return fmt.Errorf("per-core breakdowns do not sum to the total")
	}
	if r.Coll.ChunksCommitted != r.ChunksCommitted {
		return fmt.Errorf("collector saw %d commits, cores saw %d",
			r.Coll.ChunksCommitted, r.ChunksCommitted)
	}
	return nil
}

// Run simulates one (application, machine, protocol) combination.
func Run(prof workload.Profile, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prof, cfg)
}

// Machine is one fully assembled simulated multicore, built by Build and not
// yet started. RunContext drives it through the standard event loop; the
// model-checking explorer (internal/explore) installs a mesh.Scheduler on
// Net before Start and drives its own interleaved loop instead. The exported
// fields are the assembly's top-level components.
type Machine struct {
	Eng   *event.Engine
	Net   *mesh.Network
	Env   *dir.Env
	Procs []*proc.Proc
	Proto protocol.Engine
	// Check is the online invariant checker, nil unless Config.Check.
	Check *check.Checker
	// Inj is the fault injector, nil unless Config.Faults enabled.
	Inj *fault.Injector

	prof workload.Profile
	cfg  Config
	// done counts finished processors (maintained by the proc.OnDone hook)
	// so AllDone is O(1) instead of scanning every core per step.
	done int
	// restored is set when BuildFrom restored a WarmImage.
	restored bool
}

// Now returns the simulation clock.
func (m *Machine) Now() event.Time { return m.Eng.Now() }

// Build assembles the machine for prof under cfg: network, directory
// environment, tracer, fault injector, invariant checker, protocol engine,
// workload and processors, then runs cache/directory warm-up. The machine is
// returned stopped — no processor has issued its first chunk — so a caller
// may install observers (e.g. a mesh.Scheduler) before Start.
func Build(prof workload.Profile, cfg Config) (*Machine, error) {
	return BuildFrom(prof, cfg, nil)
}

// BuildFrom is Build with the warm-up replaced by restoring img, a
// WarmImage taken from a machine with the same WarmKey. A nil img runs the
// warm-up loop. Either way the machine is the same, bit for bit. A panic in
// Build is re-panicked wrapped in *RunPanic, like one in the run (without a
// machine dump: the machine is not complete), so sweep workers recover both
// into the same crash report.
func BuildFrom(prof workload.Profile, cfg Config, img *WarmImage) (*Machine, error) {
	defer func() {
		if r := recover(); r != nil {
			panic(&RunPanic{
				App: prof.Name, Protocol: cfg.Protocol, Cores: cfg.Cores,
				Value: r, Stack: string(debug.Stack()),
			})
		}
	}()
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("system: need at least one core")
	}
	if img != nil {
		if key, ok := WarmKeyOf(prof, cfg); !ok || key != img.key {
			return nil, fmt.Errorf("system: warm image of a different machine")
		}
	}
	eng := event.New()
	m := &Machine{Eng: eng, prof: prof, cfg: cfg}
	net := mesh.New(eng, mesh.Config{Nodes: cfg.Cores, Contention: cfg.Contention})
	m.Net = net
	env := &dir.Env{
		Eng: eng, Net: net, Map: mem.NewMapper(cfg.Cores), State: dir.NewState(cfg.Cores),
		Coll: stats.New(),
	}
	m.Env = env

	if tr := trace.New(eng, cfg.TraceSink); tr != nil {
		env.Trace = tr
		env.Coll.Trace = tr
		net.Trace = tr
	}

	if cfg.Faults.Enabled() {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		m.Inj = fault.New(*cfg.Faults, seed)
		m.Inj.Trace = env.Trace
		net.Fault = m.Inj
	}
	if cfg.Check {
		chk := check.New(cfg.Cores)
		m.Check = chk
		env.Probe = chk
		net.OnSend = chk.Sent
		net.OnDeliver = chk.Delivered
	}

	desc, ok := LookupProtocol(cfg.Protocol)
	if !ok {
		return nil, fmt.Errorf("system: unknown protocol %q (registered: %s)",
			cfg.Protocol, strings.Join(ProtocolNames(), ", "))
	}
	proto, err := desc.New(env, Options(cfg))
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	m.Proto = proto
	pcfg := proc.Config{
		ConservativeInv: desc.Tuning.ConservativeInv,
		OCIRecall:       desc.Tuning.OCIRecall,
		Seed:            cfg.Seed,
		OnDone:          func(int) { m.done++ },
	}

	factory := cfg.WorkloadFactory
	if factory == nil {
		factory, err = workload.Resolve(cfg.Workload)
		if err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	gen, err := factory(prof, cfg.Cores, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	if v, ok := gen.(workload.Validator); ok {
		if err := v.Validate(cfg.Cores, cfg.ChunksPerCore, cfg.WarmupChunks); err != nil {
			return nil, fmt.Errorf("system: %w", err)
		}
	}
	env.Cores = make([]dir.Core, cfg.Cores)
	procs := make([]*proc.Proc, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		procs[i] = proc.New(env, proto, gen, i, cfg.ChunksPerCore, cfg.L1, cfg.L2, pcfg)
		env.Cores[i] = procs[i]
		if procs[i].Done() {
			m.done++ // born finished (zero chunk target)
		}
	}
	m.Procs = procs
	rp := &dir.ReadPath{Env: env, Proto: proto}
	for i := 0; i < cfg.Cores; i++ {
		node := i
		net.Register(node, func(mm *msg.Msg) {
			if mm.Kind.SideOf() == msg.SideDir {
				if !rp.HandleDir(node, mm) {
					proto.HandleDir(node, mm)
				}
			} else {
				procs[node].Handle(mm)
			}
		})
	}

	if img != nil {
		img.restore(m)
		return m, nil
	}
	// Warmup: pre-touch each thread's working set. Round-robin across
	// cores so shared pages get their first-touch homes the same way the
	// application's initialization phase would assign them.
	for w := 0; w < cfg.WarmupChunks; w++ {
		for i := 0; i < cfg.Cores; i++ {
			ck := gen.WarmupChunk(i, w)
			// Accesses come in slot-aligned runs on one page, and a mapped
			// page's home never moves, so one Home call per run assigns
			// the same first-touch homes as one per access.
			page := mem.Page(^uint64(0))
			for _, a := range ck.Accesses {
				if p := mem.PageOf(a.Line); p != page {
					env.Map.Home(a.Line, i)
					page = p
				}
				procs[i].Hierarchy().Fill(a.Line, false)
				// Register directory sharers only for the recent working
				// set (the tail of warmup): real directories track live
				// cached copies, and unbounded registration would make
				// every commit's invalidation fan out machine-wide.
				if w >= cfg.WarmupChunks-8 {
					env.State.AddSharer(a.Line, i)
				}
			}
		}
	}
	return m, nil
}

// Start issues every processor's first chunk. Observers installed on the
// machine (network taps, a schedule controller) must be in place before it.
func (m *Machine) Start() {
	for _, p := range m.Procs {
		p.Start()
	}
}

// AllDone reports whether every processor finished its chunk target. O(1):
// the done count is maintained by the processors' OnDone hook.
func (m *Machine) AllDone() bool { return m.done >= len(m.Procs) }

// Dump renders the stuck processors and per-module protocol state, truncated
// to MaxDumpLines.
func (m *Machine) Dump() string { return dumpMachine(m.Procs, m.Proto) }

// Deadlock builds the structured no-progress abort for the machine's current
// state.
func (m *Machine) Deadlock(reason string, budget bool) error {
	return &DeadlockError{
		App: m.prof.Name, Protocol: m.cfg.Protocol, Cores: m.cfg.Cores,
		Cycle: m.Now(), Reason: reason, Dump: m.Dump(),
		BudgetExhausted: budget,
	}
}

// Abort builds the structured cancellation/deadline abort.
func (m *Machine) Abort(cause error) error {
	return &AbortError{
		App: m.prof.Name, Protocol: m.cfg.Protocol, Cores: m.cfg.Cores,
		Cycle: m.Now(), Cause: cause,
	}
}

// runPanic wraps a recovered panic value into a *RunPanic with the machine
// state at the moment of failure.
func (m *Machine) runPanic(v any, stack string) *RunPanic {
	rp := &RunPanic{
		App: m.prof.Name, Protocol: m.cfg.Protocol, Cores: m.cfg.Cores,
		Cycle: m.Now(), Value: v, Stack: stack,
	}
	if len(m.Procs) > 0 && m.Proto != nil {
		rp.Dump = m.Dump()
	}
	return rp
}

// Finish runs the end-of-run sequence after every processor completed: with
// the checker enabled it drains protocol stragglers (late acks, watchdog
// no-ops) to a quiescent state and runs the end-of-run invariant checks,
// then builds the Result. A checker violation returns the Result alongside a
// *check.ViolationError carrying the machine dump.
func (m *Machine) Finish() (*Result, error) {
	cfg, chk := m.cfg, m.Check
	if chk != nil {
		// Drain the stragglers (late acks, expiring watchdog deadlines) so
		// the end-of-run checks see quiescent protocol state. A deadline
		// re-arms only for a live attempt, so each protocol's watchdog
		// lane and the queue empty; the step bound is a backstop.
		for steps := 0; m.Eng.Step() && steps < 10_000_000; steps++ {
		}
		chk.Finish(cfg.Cores, cfg.ChunksPerCore)
	}
	res := &Result{
		App: m.prof.Name, Protocol: cfg.Protocol, Cores: cfg.Cores,
		Coll: m.Env.Coll, Traffic: m.Net.Stats(), ProtoStats: maps.Clone(m.Proto.Stats()),
		Checked: chk != nil, RingResidency: m.Eng.RingResidency(),
	}
	if m.Inj != nil {
		fs := m.Inj.Stats()
		res.Faults = &fs
	}
	for _, p := range m.Procs {
		res.PerCore = append(res.PerCore, p.Acct)
		res.Breakdown.Add(p.Acct)
		res.ChunksCommitted += uint64(p.Committed)
		res.PerCoreCommitted = append(res.PerCoreCommitted, p.Committed)
		res.Squashes += p.Squashes
		if p.FinishAt > res.Cycles {
			res.Cycles = p.FinishAt
		}
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			var ve *check.ViolationError
			if errors.As(err, &ve) {
				ve.Dump = m.Dump()
			}
			return res, err
		}
	}
	return res, nil
}

// RunContext is Run with cancellation: Build, then the machine's RunContext.
// A panic in either arrives wrapped in *RunPanic.
func RunContext(ctx context.Context, prof workload.Profile, cfg Config) (*Result, error) {
	m, err := Build(prof, cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// RunContext starts the machine and runs it to the end: the event loop polls
// ctx, bounded by the RunTimeout wall-clock budget if set, every
// ctxPollInterval events and aborts with an *AbortError, leaving deadlocks
// to *DeadlockError. A panic escaping the simulation is re-panicked wrapped in
// *RunPanic carrying the machine state, for sweep workers to recover into
// crash bundles.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	cfg := m.cfg
	if cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*RunPanic); ok {
				panic(r)
			}
			panic(m.runPanic(r, string(debug.Stack())))
		}
	}()
	m.Start()

	steps := 0
	for !m.AllDone() {
		if !m.Eng.Step() {
			return nil, m.Deadlock("event queue empty", false)
		}
		if m.Now() > cfg.MaxCycles {
			return nil, m.Deadlock(fmt.Sprintf("exceeded MaxCycles=%d", cfg.MaxCycles), true)
		}
		if steps++; steps%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, m.Abort(err)
			}
		}
	}
	return m.Finish()
}

// RunScaled runs prof on `cores` processors with the whole-problem work
// `totalChunks` divided evenly (the paper's strong-scaling setup: the same
// reference input on 1, 32 or 64 threads).
func RunScaled(prof workload.Profile, cfg Config, totalChunks int) (*Result, error) {
	cfg.ChunksPerCore = totalChunks / cfg.Cores
	if cfg.ChunksPerCore < 1 {
		cfg.ChunksPerCore = 1
	}
	return RunContext(context.Background(), prof, cfg)
}
