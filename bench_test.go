package scalablebulk

// Ablation benchmarks: each one runs Barnes at 64 processors under
// ScalableBulk, varies one design choice DESIGN.md calls out, and reports
// the outcome as custom metrics. The paper's tables and figures regenerate through
// cmd/sbfig; simulator throughput is perfbench's job.

import (
	"fmt"
	"testing"

	"scalablebulk/internal/core"
)

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

// BenchmarkAblationSignatureAliasing reports the squash mix, isolating the
// signature-aliasing cost the paper quantifies in §6.1.
func BenchmarkAblationSignatureAliasing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := ablationRun(b, func(c *Config) {})
		b.ReportMetric(float64(r.Coll.SquashTrueConflict), "true_squash")
		b.ReportMetric(float64(r.Coll.SquashAliasing), "alias_squash")
	}
}
