package scalablebulk

// One benchmark per table and figure of the paper's evaluation section
// (§5–§6). Each benchmark regenerates its table/figure through the shared
// Session (results are cached across benchmarks, so the whole suite costs
// one sweep of simulations) and prints the rows once, to stdout, the first
// time it runs — the same rows cmd/sbfig prints.
//
// Sizing: the default workload is 16 chunks/core at 64 processors (1024
// chunks of whole-problem work per application). Set SB_BENCH_CHUNKS to
// raise it for higher-fidelity regeneration.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"scalablebulk/internal/core"
	"scalablebulk/internal/system"
)

var (
	benchMu      sync.Mutex
	benchSession *Session
	benchPrinted = map[string]bool{}
)

// benchS returns the shared session (built lazily under the mutex).
func benchS() *Session {
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchSession == nil {
		chunks := 16
		if v := os.Getenv("SB_BENCH_CHUNKS"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				chunks = n
			}
		}
		benchSession = NewSession(chunks, 1, os.Stdout)
	}
	return benchSession
}

// runFigure regenerates a figure, printing its rows only on the first call.
func runFigure(b *testing.B, name string, gen func(s *Session) error) {
	b.Helper()
	s := benchS()
	for i := 0; i < b.N; i++ {
		// SetOut is race-clean: the session routes all rendering through the
		// configured writer under its own lock.
		benchMu.Lock()
		if benchPrinted[name] {
			s.SetOut(discardWriter{})
		} else {
			s.SetOut(os.Stdout)
			fmt.Printf("\n=== %s ===\n", name)
			benchPrinted[name] = true
		}
		benchMu.Unlock()
		if err := gen(s); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTable2MachineThroughput measures raw simulator throughput on the
// Table 2 machine: simulated cycles per wall-second for a 64-processor
// ScalableBulk run of FFT.
func BenchmarkTable2MachineThroughput(b *testing.B) {
	prof, _ := AppByName("FFT")
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(64, ProtoScalableBulk)
		cfg.ChunksPerCore = 8
		res, err := Run(prof, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "simcycles/op")
	}
}

// BenchmarkTable3Protocols runs one contended application under all four
// Table 3 protocols and reports each protocol's mean commit latency.
func BenchmarkTable3Protocols(b *testing.B) {
	s := benchS()
	for i := 0; i < b.N; i++ {
		for _, protocol := range Protocols {
			r, err := s.Result("Barnes", protocol, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MeanCommitLatency(), protocol+"_cycles")
		}
	}
}

// BenchmarkFig07SplashExecutionTime regenerates Figure 7: SPLASH-2
// execution-time breakdowns and speedups for all four protocols.
func BenchmarkFig07SplashExecutionTime(b *testing.B) {
	runFigure(b, "Figure 7", func(s *Session) error {
		for _, p := range Protocols {
			if err := s.Figure7(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkFig08ParsecExecutionTime regenerates Figure 8 (PARSEC).
func BenchmarkFig08ParsecExecutionTime(b *testing.B) {
	runFigure(b, "Figure 8", func(s *Session) error {
		for _, p := range Protocols {
			if err := s.Figure8(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkFig09SplashDirsPerCommit regenerates Figure 9.
func BenchmarkFig09SplashDirsPerCommit(b *testing.B) {
	runFigure(b, "Figure 9", func(s *Session) error { return s.Figure9() })
}

// BenchmarkFig10ParsecDirsPerCommit regenerates Figure 10.
func BenchmarkFig10ParsecDirsPerCommit(b *testing.B) {
	runFigure(b, "Figure 10", func(s *Session) error { return s.Figure10() })
}

// BenchmarkFig11SplashDirDistribution regenerates Figure 11.
func BenchmarkFig11SplashDirDistribution(b *testing.B) {
	runFigure(b, "Figure 11", func(s *Session) error { return s.Figure11() })
}

// BenchmarkFig12ParsecDirDistribution regenerates Figure 12.
func BenchmarkFig12ParsecDirDistribution(b *testing.B) {
	runFigure(b, "Figure 12", func(s *Session) error { return s.Figure12() })
}

// BenchmarkFig13CommitLatency regenerates Figure 13 and reports the
// headline all-application mean latencies per protocol at 64 processors
// (paper: ScalableBulk 91, TCC 411, SEQ 153, BulkSC 2954).
func BenchmarkFig13CommitLatency(b *testing.B) {
	runFigure(b, "Figure 13", func(s *Session) error { return s.Figure13() })
	means, err := benchS().MeanLatencyTable(64)
	if err != nil {
		b.Fatal(err)
	}
	for p, m := range means {
		b.ReportMetric(m, p+"_mean64")
	}
}

// BenchmarkFig14SplashBottleneckRatio regenerates Figure 14.
func BenchmarkFig14SplashBottleneckRatio(b *testing.B) {
	runFigure(b, "Figure 14", func(s *Session) error { return s.Figure14() })
}

// BenchmarkFig15ParsecBottleneckRatio regenerates Figure 15.
func BenchmarkFig15ParsecBottleneckRatio(b *testing.B) {
	runFigure(b, "Figure 15", func(s *Session) error { return s.Figure15() })
}

// BenchmarkFig16SplashChunkQueue regenerates Figure 16.
func BenchmarkFig16SplashChunkQueue(b *testing.B) {
	runFigure(b, "Figure 16", func(s *Session) error { return s.Figure16() })
}

// BenchmarkFig17ParsecChunkQueue regenerates Figure 17.
func BenchmarkFig17ParsecChunkQueue(b *testing.B) {
	runFigure(b, "Figure 17", func(s *Session) error { return s.Figure17() })
}

// BenchmarkFig18SplashTraffic regenerates Figure 18.
func BenchmarkFig18SplashTraffic(b *testing.B) {
	runFigure(b, "Figure 18", func(s *Session) error { return s.Figure18() })
}

// BenchmarkFig19ParsecTraffic regenerates Figure 19.
func BenchmarkFig19ParsecTraffic(b *testing.B) {
	runFigure(b, "Figure 19", func(s *Session) error { return s.Figure19() })
}

// BenchmarkSquashClassification regenerates the §6.1 squash statistics
// (paper: 1.5% data-conflict squashes, 2.3% aliasing squashes at 64p).
func BenchmarkSquashClassification(b *testing.B) {
	runFigure(b, "Squash classification (§6.1)", func(s *Session) error { return s.SquashSummary() })
}

// --- Ablations (design choices DESIGN.md calls out) ---

// ablationRun runs Barnes at 64 processors with a tweaked config.
func ablationRun(b *testing.B, mutate func(*Config)) *Result {
	b.Helper()
	prof, _ := AppByName("Barnes")
	cfg := DefaultConfig(64, ProtoScalableBulk)
	cfg.ChunksPerCore = 12
	mutate(&cfg)
	res, err := Run(prof, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationOCI compares ScalableBulk with and without Optimistic
// Commit Initiation (§3.3): OCI removes the failed group's formation and
// failure delivery from the winning commit's critical path.
func BenchmarkAblationOCI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, func(c *Config) {})
		without := ablationRun(b, func(c *Config) { c.Protocol = ProtoNoOCI })
		b.ReportMetric(with.MeanCommitLatency(), "oci_cycles")
		b.ReportMetric(without.MeanCommitLatency(), "nooci_cycles")
		b.ReportMetric(float64(with.Cycles), "oci_exec")
		b.ReportMetric(float64(without.Cycles), "nooci_exec")
	}
}

// BenchmarkAblationPriorityRotation compares the baseline lowest-ID leader
// policy against §3.2.2's rotating priorities.
func BenchmarkAblationPriorityRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ablationRun(b, func(c *Config) {})
		rot := ablationRun(b, func(c *Config) {
			sb := core.DefaultConfig()
			sb.RotationInterval = 10000
			c.ProtoOptions = sb
		})
		b.ReportMetric(base.MeanCommitLatency(), "fixed_cycles")
		b.ReportMetric(rot.MeanCommitLatency(), "rotating_cycles")
	}
}

// BenchmarkAblationStarvationMAX sweeps the §3.2.2 MAX threshold.
func BenchmarkAblationStarvationMAX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, max := range []int{4, 12, 64} {
			r := ablationRun(b, func(c *Config) {
				sb := core.DefaultConfig()
				sb.MaxSquashes = max
				c.ProtoOptions = sb
			})
			b.ReportMetric(float64(r.Cycles), fmt.Sprintf("max%d_exec", max))
			b.ReportMetric(float64(r.ProtoStats["fail_reserved"]), fmt.Sprintf("max%d_resv", max))
		}
	}
}

// BenchmarkAblationContention compares runs with and without per-link NoC
// contention modeling.
func BenchmarkAblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, func(c *Config) {})
		without := ablationRun(b, func(c *Config) { c.Contention = false })
		b.ReportMetric(with.MeanCommitLatency(), "contended_cycles")
		b.ReportMetric(without.MeanCommitLatency(), "ideal_cycles")
	}
}

// BenchmarkAblationChunkSize reproduces the paper's §2.2 argument: "with
// chunk sizes one order of magnitude smaller than Scalable TCC, chunk
// commit is more frequent, and its overhead is harder to hide". Growing the
// chunks (towards Scalable TCC's software-defined transactions) makes TCC's
// per-directory serialization vanish; at the paper's 2000 instructions it
// is plainly visible.
func BenchmarkAblationChunkSize(b *testing.B) {
	prof, _ := AppByName("Radix")
	for i := 0; i < b.N; i++ {
		for _, instr := range []int{2000, 8000, 32000} {
			big := prof
			big.ChunkInstr = instr
			cfg := DefaultConfig(64, ProtoTCC)
			// Same total instructions: fewer, bigger chunks.
			cfg.ChunksPerCore = 12 * 2000 / instr
			if cfg.ChunksPerCore < 1 {
				cfg.ChunksPerCore = 1
			}
			res, err := Run(big, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanCommitLatency(), fmt.Sprintf("tcc%d_lat", instr))
			b.ReportMetric(res.Coll.MeanQueueLength(), fmt.Sprintf("tcc%d_queue", instr))
		}
	}
}

// BenchmarkAblationSignatureAliasing reports the squash mix, isolating the
// signature-aliasing cost the paper quantifies in §6.1.
func BenchmarkAblationSignatureAliasing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ablationRun(b, func(c *Config) {})
		b.ReportMetric(float64(r.Coll.SquashTrueConflict), "true_squash")
		b.ReportMetric(float64(r.Coll.SquashAliasing), "alias_squash")
	}
}

var _ = system.Protocols // keep import for ablation visibility
