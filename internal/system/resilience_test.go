package system

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/workload"
)

func mustApp(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return prof
}

// TestRunContextCancel: a canceled context aborts the run with an
// *AbortError that matches both ErrAborted and context.Canceled — and does
// NOT match ErrDeadlock, so callers can tell a withdrawn budget from a
// stuck machine.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, mustApp(t, "Radix"), quickCfg(8, ProtoScalableBulk))
	if err == nil {
		t.Fatal("expected abort, got success")
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("errors.Is(err, ErrAborted) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Errorf("cancellation must not look like a deadlock: %v", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *AbortError, got %T", err)
	}
	if ae.App != "Radix" || ae.Cores != 8 {
		t.Errorf("AbortError context = %s/%d, want Radix/8", ae.App, ae.Cores)
	}
}

// TestRunTimeout: Config.RunTimeout imposes a wall-clock deadline whose
// abort carries context.DeadlineExceeded as the cause.
func TestRunTimeout(t *testing.T) {
	cfg := quickCfg(64, ProtoScalableBulk)
	cfg.RunTimeout = time.Nanosecond
	_, err := RunContext(context.Background(), mustApp(t, "Barnes"), cfg)
	if err == nil {
		t.Fatal("expected deadline abort, got success")
	}
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want ErrAborted + DeadlineExceeded, got %v", err)
	}
}

// TestDumpTruncated: a 64-core deadlock dump is bounded at MaxDumpLines
// with an explicit elided-line count, so error logs stay small.
func TestDumpTruncated(t *testing.T) {
	cfg := quickCfg(64, ProtoScalableBulk)
	cfg.MaxCycles = 1000
	_, err := Run(mustApp(t, "Barnes"), cfg)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %v", err)
	}
	if !de.BudgetExhausted {
		t.Error("MaxCycles abort must set BudgetExhausted")
	}
	if !strings.Contains(de.Dump, "more lines elided") {
		t.Errorf("64-core dump should be truncated, got %d bytes without marker", len(de.Dump))
	}
	if n := strings.Count(de.Dump, "\n") + 1; n > MaxDumpLines+1 {
		t.Errorf("dump has %d lines, want <= %d", n, MaxDumpLines+1)
	}
}

func TestTruncateLines(t *testing.T) {
	in := "a\nb\nc\nd"
	if got := truncateLines(in, 4); got != in {
		t.Errorf("no-op truncation changed the dump: %q", got)
	}
	if got := truncateLines(in, 2); got != "a\nb\n... (2 more lines elided)" {
		t.Errorf("truncateLines(.., 2) = %q", got)
	}
}

// panicSource is a workload source that panics when asked for any chunk past
// each core's first: a fault inside the running simulator, past cycle 0.
type panicSource struct{ workload.Source }

func (s panicSource) NextChunk(proc int, seq uint64) *chunk.Chunk {
	if seq > 0 {
		panic("injected fault")
	}
	return s.Source.NextChunk(proc, seq)
}

// TestRunPanicWrapping: a panic escaping the simulation is re-panicked as a
// *RunPanic carrying the simulated cycle, a machine dump and the original
// stack — the raw material for crash bundles.
func TestRunPanicWrapping(t *testing.T) {
	cfg := quickCfg(8, ProtoScalableBulk)
	cfg.WorkloadFactory = func(prof workload.Profile, threads int, seed int64) (workload.Source, error) {
		return panicSource{workload.New(prof, threads, seed)}, nil
	}
	var rec any
	func() {
		defer func() { rec = recover() }()
		_, _ = Run(mustApp(t, "Radix"), cfg)
	}()
	rp, ok := rec.(*RunPanic)
	if !ok {
		t.Fatalf("expected *RunPanic, got %T (%v)", rec, rec)
	}
	if rp.Value != "injected fault" {
		t.Errorf("Value = %v, want the original panic value", rp.Value)
	}
	if rp.App != "Radix" || rp.Protocol != ProtoScalableBulk || rp.Cores != 8 {
		t.Errorf("machine context = %s/%s/%d", rp.App, rp.Protocol, rp.Cores)
	}
	if rp.Cycle == 0 {
		t.Error("Cycle = 0; the panic fired mid-run")
	}
	if rp.Stack == "" || !strings.Contains(rp.Stack, "goroutine") {
		t.Error("Stack missing the Go stack trace")
	}
	if rp.Dump == "" {
		t.Error("Dump empty; the machine state at the panic is lost")
	}
}

// TestBuildPanicWrapping: a panic in Build arrives as a *RunPanic too,
// without a cycle or a dump, so sweep workers that build a machine
// themselves recover it into the same crash report as one from RunContext.
func TestBuildPanicWrapping(t *testing.T) {
	cfg := quickCfg(8, ProtoScalableBulk)
	cfg.WorkloadFactory = func(workload.Profile, int, int64) (workload.Source, error) {
		panic("injected build fault")
	}
	var rec any
	func() {
		defer func() { rec = recover() }()
		_, _ = BuildFrom(mustApp(t, "Radix"), cfg, nil)
	}()
	rp, ok := rec.(*RunPanic)
	if !ok {
		t.Fatalf("expected *RunPanic, got %T (%v)", rec, rec)
	}
	if rp.Value != "injected build fault" || rp.App != "Radix" || rp.Protocol != ProtoScalableBulk || rp.Cores != 8 {
		t.Errorf("RunPanic = %s/%s/%d %v", rp.App, rp.Protocol, rp.Cores, rp.Value)
	}
	if rp.Cycle != 0 || rp.Dump != "" || !strings.Contains(rp.Stack, "goroutine") {
		t.Errorf("cycle %d, dump %q, stack %q: want no cycle or dump, and the Go stack", rp.Cycle, rp.Dump, rp.Stack)
	}
}

// TestRetryEscalationConverges: under a fault profile a MaxCycles abort only
// means the budget was short. Retrying with a larger budget replays the same
// deterministic run and converges on the result a clean run produces, so an
// escalating retry is the same as one run with the final budget.
func TestRetryEscalationConverges(t *testing.T) {
	prof := mustApp(t, "Radix")
	cfg := DefaultConfig(8, ProtoScalableBulk)
	cfg.ChunksPerCore = 4
	cfg.Seed = 3
	chaos, err := fault.ByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = chaos

	clean, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.MaxCycles = clean.Cycles / 2
	_, err = Run(prof, cfg)
	var de *DeadlockError
	if !errors.As(err, &de) || !de.BudgetExhausted {
		t.Fatalf("halved budget should be a budget-exhausted abort, got %v", err)
	}

	cfg.MaxCycles *= 4
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatalf("4x budget did not converge: %v", err)
	}
	if res.Cycles != clean.Cycles {
		t.Errorf("retried result diverged: %d cycles, clean run %d", res.Cycles, clean.Cycles)
	}
	if res.ChunksCommitted != clean.ChunksCommitted || res.Squashes != clean.Squashes {
		t.Errorf("retried run committed %d chunks with %d squashes, clean run %d with %d",
			res.ChunksCommitted, res.Squashes, clean.ChunksCommitted, clean.Squashes)
	}
	if !reflect.DeepEqual(res.Breakdown, clean.Breakdown) || !reflect.DeepEqual(res.Traffic, clean.Traffic) {
		t.Errorf("retried run's cycle breakdown or traffic diverged from the clean run")
	}
}

// TestRetryRefusesFaultFreeDeadlock: without a fault profile a MaxCycles
// abort is a real stall, not noise. The run fails once with a
// budget-exhausted *DeadlockError that still matches ErrDeadlock.
func TestRetryRefusesFaultFreeDeadlock(t *testing.T) {
	cfg := quickCfg(8, ProtoScalableBulk)
	cfg.MaxCycles = 1000
	_, err := Run(mustApp(t, "Radix"), cfg)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %v", err)
	}
	if !de.BudgetExhausted {
		t.Errorf("abort at MaxCycles=%d not marked BudgetExhausted: %v", cfg.MaxCycles, err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("budget abort should match ErrDeadlock: %v", err)
	}
}
