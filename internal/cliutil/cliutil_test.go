package cliutil

import (
	"errors"
	"strings"
	"testing"

	scalablebulk "scalablebulk"
)

func TestSweepExitCode(t *testing.T) {
	fail := scalablebulk.PointFailure{
		Point: scalablebulk.Point{App: "Radix", Protocol: "TCC", Cores: 8},
		Err:   errors.New("boom"),
	}
	cases := []struct {
		name string
		out  scalablebulk.SweepOutcome
		want int
	}{
		{"clean", scalablebulk.SweepOutcome{Points: 2, Completed: 2}, ExitOK},
		{"aborted", scalablebulk.SweepOutcome{Points: 2, Completed: 1, Aborted: true}, ExitAborted},
		{"failures", scalablebulk.SweepOutcome{Points: 2, Completed: 1,
			Failures: []scalablebulk.PointFailure{fail}}, ExitPointFailures},
		// Failures beat aborts: a crashed point must not look like Ctrl-C.
		{"failures_and_abort", scalablebulk.SweepOutcome{Points: 2, Aborted: true,
			Failures: []scalablebulk.PointFailure{fail}}, ExitPointFailures},
	}
	for _, tc := range cases {
		var b strings.Builder
		if got := SweepExitCode(&b, "tool", &tc.out); got != tc.want {
			t.Errorf("%s: exit code = %d, want %d", tc.name, got, tc.want)
		}
		if len(tc.out.Failures) > 0 && !strings.Contains(b.String(), "tool: FAIL Radix/TCC/8") {
			t.Errorf("%s: missing FAIL line, got %q", tc.name, b.String())
		}
	}
	if got := SweepExitCode(nil, "tool", &scalablebulk.SweepOutcome{}); got != ExitOK {
		t.Errorf("nil writer: exit code = %d, want 0", got)
	}
}

func TestSignalContext(t *testing.T) {
	ctx, stop := SignalContext()
	if ctx.Err() != nil {
		t.Fatalf("fresh signal context already canceled: %v", ctx.Err())
	}
	stop()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("stop() did not cancel the context")
	}
}

// TestListingsPinned pins the -protocols and -workloads listing text. Table
// order is listing order, so reordering or renaming a table row shows here.
func TestListingsPinned(t *testing.T) {
	const wantProtocols = "" +
		"ScalableBulk           evaluated  the paper's protocol: distributed group formation, overlapped commits, OCI (§3)\n" +
		"TCC                    evaluated  Scalable TCC: global TID order, per-directory probe/mark before write-set push (§2.2)\n" +
		"SEQ                    evaluated  SEQ-PRO: sequential directory occupation in ascending order, fully serialized commits (§2.2)\n" +
		"BulkSC                 evaluated  BulkSC: centralized arbiter serializes commits, conservative invalidation (§2.2)\n" +
		"ScalableBulk-NoOCI     variant    ScalableBulk ablation: Optimistic Commit Initiation off, conservative invalidation (Figure 4(c))\n"
	const wantWorkloads = "" +
		"synthetic      default      synthetic SPLASH-2/PARSEC application models (§5, the default)\n" +
		"convoy         adversarial  lock convoy: every chunk writes one of a few lock lines (total commit serialization)\n" +
		"kvstore        adversarial  millions-of-users KV store: zipf-popular keys over a huge space, read-mostly, no spatial locality\n" +
		"pipeline       adversarial  producer-consumer pipeline: core p writes the block core p+1 reads (neighbor squash chains)\n" +
		"stormdir       adversarial  directory-hotspot storm: disjoint write sets that all home at two directory modules\n" +
		"zipf           adversarial  zipfian hot-line sharing: all cores read/write a skewed hot pool (conflict storm)\n" +
		"replay:PATH    trace        replay the recorded workload trace at PATH bit-identically\n"
	if got := ProtocolList(); got != wantProtocols {
		t.Errorf("ProtocolList:\n got:\n%s want:\n%s", got, wantProtocols)
	}
	if got := WorkloadList(); got != wantWorkloads {
		t.Errorf("WorkloadList:\n got:\n%s want:\n%s", got, wantWorkloads)
	}
}
