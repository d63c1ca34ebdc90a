package explore

import (
	"os"
	"path/filepath"
	"testing"

	"scalablebulk/internal/event"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
)

// TestExhaustDefault: the default 2×2 forced-conflict space for the paper's
// reference protocol exhausts cleanly — the checker's baseline claim.
func TestExhaustDefault(t *testing.T) {
	rep, err := Explore(DefaultOptions("SEQ"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep.Summary())
	if !rep.Clean() {
		t.Fatalf("violation: %s\n%s", rep.Violation, rep.Dump)
	}
	if rep.Outcome != "exhausted" {
		t.Fatalf("outcome %q (budget %q), want exhausted", rep.Outcome, rep.BoundHit)
	}
	if rep.Runs < 100 {
		t.Fatalf("only %d runs — the explorer is not actually branching", rep.Runs)
	}
	if rep.Pruned == 0 {
		t.Fatal("visited-set pruning never fired on a space this size")
	}
}

// TestWorkloadSourceExhausts: a spec may name a workload source. Under zipf,
// SEQ's occupancy nacks a core's load until a held release arrives; the
// explorer must deliver that release instead of letting the load's retries
// run out the cycle budget.
func TestWorkloadSourceExhausts(t *testing.T) {
	opts := DefaultOptions("SEQ")
	opts.App, opts.Chunks = "zipf", 1
	rep, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Outcome != "exhausted" {
		t.Fatalf("%s\n%s", rep.Summary(), rep.Dump)
	}
}

// TestBudgetReportsBounded: an undersized run budget must be reported
// honestly as "bounded", never dressed up as exhaustion.
func TestBudgetReportsBounded(t *testing.T) {
	opts := DefaultOptions("SEQ")
	opts.MaxRuns = 10
	rep, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "bounded" || rep.BoundHit != "max runs" {
		t.Fatalf("outcome %q / bound %q, want bounded / max runs", rep.Outcome, rep.BoundHit)
	}
	if !rep.Clean() {
		t.Fatalf("unexpected violation: %s", rep.Violation)
	}
}

// TestCounterexampleRoundTrip uses a real finding — ScalableBulk's
// per-pair-FIFO dependence surfaces as a divergence under unordered
// delivery — to exercise the full violation pipeline: detection,
// minimization, schedule serialization, and bit-identical replay.
func TestCounterexampleRoundTrip(t *testing.T) {
	opts := DefaultOptions("BulkSC")
	opts.Unordered = true
	rep, err := Explore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Skip("BulkSC no longer depends on per-pair FIFO; pick a new violating config for this test")
	}
	if rep.Violation.Kind != KindDivergence {
		t.Fatalf("violation kind %q, want divergence", rep.Violation.Kind)
	}
	if rep.Schedule == nil {
		t.Fatal("violation reported without a replayable schedule")
	}
	if len(rep.Schedule.Choices) >= rep.MinimizedFrom {
		t.Errorf("minimization did not shrink: %d choices from %d",
			len(rep.Schedule.Choices), rep.MinimizedFrom)
	}

	path := filepath.Join(t.TempDir(), "ce.json")
	if err := rep.Schedule.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := s.Replay()
	if err != nil {
		t.Fatalf("counterexample did not reproduce: %v", err)
	}
	if rr.Violation == nil || rr.Violation.Kind != KindDivergence {
		t.Fatalf("replay violation = %v, want divergence", rr.Violation)
	}
	if len(rr.Flight) == 0 {
		t.Error("replay of a divergence carried no flight-recorder tail")
	}
}

// TestReplayDetectsTampering: a clean schedule's recorded digest anchors
// bit-identity — a wrong digest must fail the replay.
func TestReplayDetectsTampering(t *testing.T) {
	s := &Schedule{Version: ScheduleVersion, Spec: DefaultSpec("SEQ")}
	rr, err := s.Replay()
	if err != nil || rr.Violation != nil {
		t.Fatalf("default schedule should replay clean: %v / %v", err, rr.Violation)
	}
	if rr.Digest == 0 {
		t.Fatal("clean replay produced no final digest")
	}

	s.Expect = &Expect{Digest: rr.Digest, Steps: rr.Steps}
	if _, err := s.Replay(); err != nil {
		t.Fatalf("correct expectation rejected: %v", err)
	}
	s.Expect.Digest ^= 1
	if _, err := s.Replay(); err == nil {
		t.Fatal("corrupted digest accepted")
	}
	s.Expect.Digest ^= 1
	s.Expect.Steps++
	if _, err := s.Replay(); err == nil {
		t.Fatal("wrong step count accepted")
	}
}

// TestScheduleFileValidation: version and spec completeness are enforced on
// load, so a stale or hand-mangled file fails loudly instead of replaying a
// different machine.
func TestScheduleFileValidation(t *testing.T) {
	dir := t.TempDir()
	good := &Schedule{Version: ScheduleVersion, Spec: DefaultSpec("SEQ"), Choices: []int{1, 2}}
	path := filepath.Join(dir, "s.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSchedule(path); err != nil {
		t.Fatal(err)
	}

	bad := *good
	bad.Version = ScheduleVersion + 1
	if err := bad.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSchedule(path); err == nil {
		t.Fatal("wrong schedule version accepted")
	}
	bad = *good
	bad.Spec.Proto = ""
	if err := bad.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSchedule(path); err == nil {
		t.Fatal("schedule without a protocol accepted")
	}
}

// TestSpecFileRoundTrip: the sbsoak → sbcheck hand-off format.
func TestSpecFileRoundTrip(t *testing.T) {
	spec := DefaultSpec("TCC")
	spec.Cores, spec.Unordered = 3, true
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestLoadSpecDefaultsAndValidation: a spec file may omit fields, which
// keep DefaultSpec's values, but a field it sets to zero is rejected rather
// than silently replaced.
func TestLoadSpecDefaultsAndValidation(t *testing.T) {
	dir := t.TempDir()
	loadJSON := func(body string) (Spec, error) {
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadSpec(path)
	}
	got, err := loadJSON(`{"proto": "SEQ"}`)
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultSpec("SEQ"); got != want {
		t.Fatalf("omitted fields not defaulted:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{
		`{"proto": "SEQ", "horizon": 0}`,
		`{"proto": "SEQ", "max_skips": 0}`,
		`{"proto": "SEQ", "cores": 0}`,
		`{"proto": "SEQ", "app": "NoSuchApp"}`,
		`{"cores": 2}`,
	} {
		if _, err := loadJSON(bad); err == nil {
			t.Errorf("LoadSpec accepted %s", bad)
		}
	}
}

// TestExploreRejectsZeroBudget: a zero budget is an error, not a stand-in
// for a built-in default.
func TestExploreRejectsZeroBudget(t *testing.T) {
	opts := DefaultOptions("SEQ")
	opts.MaxRuns = 0
	if rep, err := Explore(opts); err == nil {
		t.Fatalf("MaxRuns 0 explored: %s", rep.Summary())
	}
}

// TestReductionSoundness cross-checks the DPOR reduction against the
// unreduced exploration on the same space: identical verdict, and the
// reduction must not have explored more schedules than the full walk.
func TestReductionSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("two full exhaustions")
	}
	reduced, err := Explore(DefaultOptions("SEQ"))
	if err != nil {
		t.Fatal(err)
	}
	full := DefaultOptions("SEQ")
	full.NoReduce = true
	unreduced, err := Explore(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reduced: %s", reduced.Summary())
	t.Logf("unreduced: %s", unreduced.Summary())
	if reduced.Clean() != unreduced.Clean() {
		t.Fatalf("reduction changed the verdict: reduced clean=%v, unreduced clean=%v",
			reduced.Clean(), unreduced.Clean())
	}
	if unreduced.Outcome == "exhausted" && reduced.Outcome != "exhausted" {
		t.Error("full walk exhausted but the reduced walk did not")
	}
	if reduced.Runs > unreduced.Runs {
		t.Errorf("reduction explored more (%d) than the full walk (%d)", reduced.Runs, unreduced.Runs)
	}
}

// newTestNet builds a minimal live network for controller unit tests.
func newTestNet() *mesh.Network {
	eng := event.New()
	net := mesh.New(eng, mesh.Config{Nodes: 4})
	for i := 0; i < 4; i++ {
		net.Register(i, func(m *msg.Msg) {})
	}
	return net
}

func hold(c *controller, src, dst int) {
	c.Hold(mesh.Delivery{M: &msg.Msg{Kind: msg.SeqOccupy, Src: src, Dst: dst}})
}

// TestControllerFIFOShadowing: by default only the oldest pending delivery
// of each (src,dst) pair is enabled — the torus's per-pair ordering — and
// unordered mode lifts exactly that constraint.
func TestControllerFIFOShadowing(t *testing.T) {
	c := &controller{}
	hold(c, 0, 1)
	hold(c, 0, 1) // same pair: shadowed
	hold(c, 1, 0) // different pair: enabled

	if got := c.enabled(false, -1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FIFO enabled = %v, want [0 2]", got)
	}
	if got := c.enabled(true, -1); len(got) != 3 {
		t.Fatalf("unordered enabled = %v, want all three", got)
	}
}

// TestControllerFairnessBound: a delivery passed over maxSkips times becomes
// the only enabled choice, so no schedule can starve a message forever.
func TestControllerFairnessBound(t *testing.T) {
	net := newTestNet()
	c := &controller{}
	hold(c, 0, 1)
	hold(c, 1, 0)
	hold(c, 2, 3)

	const maxSkips = 2
	// Deliver the newest twice; the passed-over entries accumulate skips.
	for i := 0; i < maxSkips; i++ {
		en := c.enabled(false, maxSkips)
		if len(en) != 3 {
			t.Fatalf("round %d: %d enabled, want 3 (skips below the bound)", i, len(en))
		}
		c.release(net, en, len(en)-1)
		hold(c, 2, 3) // replace the delivered message to keep three pending
	}
	// Both survivors are now at the bound; the oldest must be forced.
	en := c.enabled(false, maxSkips)
	if len(en) != 1 || en[0] != 0 {
		t.Fatalf("enabled = %v, want the starved oldest only [0]", en)
	}
	// Unlimited skips: no forcing.
	if en := c.enabled(false, -1); len(en) != 3 {
		t.Fatalf("maxSkips=-1 enabled = %v, want all three", en)
	}
}
