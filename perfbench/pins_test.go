package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	sb "scalablebulk"
)

func TestEmbeddedPinsCoverEveryPoint(t *testing.T) {
	for _, seed := range pinSeeds {
		for _, wl := range workloads {
			pl, err := makePlan(wl, seed)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, s := range pl.sim {
				keys = append(keys, s.key)
			}
			for _, p := range pl.sweep {
				keys = append(keys, pointLabel(p))
			}
			if pl.spec != nil {
				for _, p := range pl.spec.Points {
					keys = append(keys, pointLabel(p))
				}
			}
			for _, k := range keys {
				if _, ok := pl.pins[pinKey(seed, wl, k)]; !ok {
					t.Errorf("seed %d %s %s: no pin", seed, wl, k)
				}
			}
		}
	}
}

// A fingerprint that differs from its pin is a failed operation: it shows
// in the failure count and the result's correctness, and the operation's
// timing is still reported rather than read as a slowdown.
func TestPerturbedPinIsAFailureNotASlowdown(t *testing.T) {
	p := simPoint{"zipf", sb.ProtoScalableBulk, 4, 2}
	prof, cfg, err := p.resolve(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.RunContext(context.Background(), prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := sb.FingerprintSHA(res)
	bad := strings.Repeat("0", 64)

	for _, c := range []struct {
		pin        string
		wantFailed int
	}{{good, 0}, {bad, 1}} {
		tl := &tally{pins: pinSet{pinKey(1, "sim-commit", p.String()): c.pin}, seed: 1}
		r := &runner{wl: "sim-commit", seed: 1, tally: tl,
			plan: &plan{sim: []simRun{{p.String(), prof, cfg}}}}
		pr := r.simPass(context.Background())
		if tl.attempted != 1 || tl.failed != c.wantFailed {
			t.Errorf("pin %.8s: attempted %d failed %d, want 1 and %d", c.pin, tl.attempted, tl.failed, c.wantFailed)
		}
		if tl.correct() != (c.wantFailed == 0) {
			t.Errorf("pin %.8s: correct = %v", c.pin, tl.correct())
		}
		if len(pr.opsMS) != 1 || pr.points != 1 {
			t.Errorf("pin %.8s: timing not reported: %+v", c.pin, pr)
		}
		if c.wantFailed > 0 && !strings.Contains(tl.firstDivergence, p.String()) {
			t.Errorf("first divergence %q does not name the point", tl.firstDivergence)
		}
	}
}

func TestSimSeedUsesPinnedSeeds(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 2: 2, 3: 1, 10: 2, 0: 2, -1: 1} {
		if got := simSeed(seed); got != want {
			t.Errorf("simSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
