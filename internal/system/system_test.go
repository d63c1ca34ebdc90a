package system

import (
	"testing"

	"scalablebulk/internal/workload"
)

func quickCfg(cores int, protocol string) Config {
	cfg := DefaultConfig(cores, protocol)
	cfg.ChunksPerCore = 8
	return cfg
}

func mustRun(t *testing.T, prof workload.Profile, cfg Config) *Result {
	t.Helper()
	res, err := Run(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllProtocolsAllAppsSmoke runs every (protocol, app) pair on a small
// machine: the whole system must terminate with every chunk committed.
func TestAllProtocolsAllAppsSmoke(t *testing.T) {
	for _, protocol := range ProtocolNames() {
		for _, prof := range workload.All() {
			prof, protocol := prof, protocol
			t.Run(protocol+"/"+prof.Name, func(t *testing.T) {
				cfg := quickCfg(8, protocol)
				cfg.ChunksPerCore = 4
				res := mustRun(t, prof, cfg)
				if res.ChunksCommitted != uint64(8*4) {
					t.Fatalf("committed %d chunks, want %d", res.ChunksCommitted, 8*4)
				}
				if res.Cycles == 0 {
					t.Fatal("zero execution time")
				}
				if res.Breakdown.Useful == 0 {
					t.Fatal("no useful cycles accounted")
				}
			})
		}
	}
}

func TestSingleCoreRun(t *testing.T) {
	prof, _ := workload.ByName("FFT")
	cfg := quickCfg(1, ProtoScalableBulk)
	res := mustRun(t, prof, cfg)
	if res.ChunksCommitted != 8 {
		t.Fatalf("committed %d", res.ChunksCommitted)
	}
	if res.Breakdown.Commit > res.Breakdown.Useful/10 {
		t.Fatalf("single-core run has commit stalls: %+v", res.Breakdown)
	}
	if res.Coll.SquashTrueConflict+res.Coll.SquashAliasing != 0 {
		t.Fatal("single-core run squashed chunks")
	}
}

func TestDeterministicRuns(t *testing.T) {
	prof, _ := workload.ByName("Barnes")
	for _, protocol := range Protocols {
		a := mustRun(t, prof, quickCfg(8, protocol))
		b := mustRun(t, prof, quickCfg(8, protocol))
		if a.Cycles != b.Cycles || a.Traffic.Messages != b.Traffic.Messages {
			t.Fatalf("%s nondeterministic: %d/%d vs %d/%d cycles/messages",
				protocol, a.Cycles, a.Traffic.Messages, b.Cycles, b.Traffic.Messages)
		}
	}
}

func TestSeedChangesExecution(t *testing.T) {
	prof, _ := workload.ByName("FMM")
	a := mustRun(t, prof, quickCfg(8, ProtoScalableBulk))
	cfg := quickCfg(8, ProtoScalableBulk)
	cfg.Seed = 99
	b := mustRun(t, prof, cfg)
	if a.Cycles == b.Cycles && a.Traffic.Messages == b.Traffic.Messages {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	prof, _ := workload.ByName("FFT")
	if _, err := Run(prof, quickCfg(4, "MESI")); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestParallelRunBeatsSingleCore(t *testing.T) {
	// Strong scaling sanity: 16 cores on the same total work finish much
	// faster than 1 core.
	prof, _ := workload.ByName("LU")
	const total = 64
	one, err := RunScaled(prof, quickCfg(1, ProtoScalableBulk), total)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunScaled(prof, quickCfg(16, ProtoScalableBulk), total)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Cycles) / float64(many.Cycles)
	if speedup < 4 {
		t.Fatalf("16-core speedup = %.1f, want ≥ 4 (1p: %d cycles, 16p: %d cycles)",
			speedup, one.Cycles, many.Cycles)
	}
}

func TestCommitLatencyOrderingSBFastest(t *testing.T) {
	// Figure 13's qualitative ordering at 64 processors on a contended
	// app: ScalableBulk's mean commit latency is the lowest of the four
	// protocols, and BulkSC's centralized arbiter has collapsed.
	prof, _ := workload.ByName("Barnes")
	lat := map[string]float64{}
	for _, protocol := range Protocols {
		cfg := quickCfg(64, protocol)
		cfg.ChunksPerCore = 12
		res := mustRun(t, prof, cfg)
		lat[protocol] = res.MeanCommitLatency()
	}
	for _, other := range []string{ProtoTCC, ProtoSEQ, ProtoBulkSC} {
		if lat[ProtoScalableBulk] >= lat[other] {
			t.Fatalf("ScalableBulk latency %.0f not below %s latency %.0f (all: %v)",
				lat[ProtoScalableBulk], other, lat[other], lat)
		}
	}
	// The arbiter's collapse is load-dependent; on this single moderate app
	// it should already cost ≥1.5× ScalableBulk (the all-app Figure 13
	// bench shows the full 32p→64p collapse).
	if lat[ProtoBulkSC] < 1.5*lat[ProtoScalableBulk] {
		t.Fatalf("BulkSC arbiter shows no centralization cost at 64p: %.0f vs SB %.0f",
			lat[ProtoBulkSC], lat[ProtoScalableBulk])
	}
}

func TestTCCBroadcastsSkips(t *testing.T) {
	prof, _ := workload.ByName("FFT")
	res := mustRun(t, prof, quickCfg(16, ProtoTCC))
	st := res.Traffic
	// Every commit skips the directories it does not touch: far more skip
	// messages than commits.
	if st.Messages == 0 {
		t.Fatal("no traffic")
	}
	tccRes := res
	sbRes := mustRun(t, prof, quickCfg(16, ProtoScalableBulk))
	if tccRes.Traffic.Messages <= sbRes.Traffic.Messages {
		t.Fatalf("TCC messages (%d) not above ScalableBulk (%d) — broadcast missing",
			tccRes.Traffic.Messages, sbRes.Traffic.Messages)
	}
}

// TestResultValidate runs every protocol once and cross-checks the
// accounting invariants Result.Validate encodes, and that the Result carries
// the engine's counters (every in-tree engine exports fail_watchdog).
func TestResultValidate(t *testing.T) {
	prof, _ := workload.ByName("FMM")
	for _, protocol := range ProtocolNames() {
		cfg := quickCfg(16, protocol)
		res := mustRun(t, prof, cfg)
		if err := res.Validate(); err != nil {
			t.Errorf("%s: %v", protocol, err)
		}
		if _, ok := res.ProtoStats["fail_watchdog"]; !ok {
			t.Errorf("%s: ProtoStats %v lacks the engine's counters", protocol, res.ProtoStats)
		}
	}
}

// TestZeroTargetRuns: a degenerate zero-chunk run terminates immediately.
func TestZeroTargetRuns(t *testing.T) {
	prof, _ := workload.ByName("FFT")
	cfg := quickCfg(4, ProtoScalableBulk)
	cfg.ChunksPerCore = 0
	res := mustRun(t, prof, cfg)
	if res.ChunksCommitted != 0 || res.Cycles != 0 {
		t.Fatalf("zero-target run committed %d in %d cycles", res.ChunksCommitted, res.Cycles)
	}
}
