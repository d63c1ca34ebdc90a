package farm

import (
	"strings"
	"testing"

	scalablebulk "scalablebulk"
)

func TestSweepSpecIDStable(t *testing.T) {
	a, b := testSpec(), testSpec()
	if a.ID() != b.ID() {
		t.Fatalf("identical specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	if len(a.ID()) != 16 {
		t.Fatalf("ID length = %d, want 16 hex chars", len(a.ID()))
	}
	// Any knob change must change the identity.
	variants := []func(*SweepSpec){
		func(s *SweepSpec) { s.Seed++ },
		func(s *SweepSpec) { s.ChunksPerCore++ },
		func(s *SweepSpec) { s.Scaling = ScalingFixed },
		func(s *SweepSpec) { s.Faults = "flaky" },
		func(s *SweepSpec) { s.Check = true },
		func(s *SweepSpec) { s.Points = s.Points[:2] },
		func(s *SweepSpec) { s.Points[0], s.Points[1] = s.Points[1], s.Points[0] },
	}
	for i, mut := range variants {
		v := testSpec()
		mut(v)
		if v.ID() == a.ID() {
			t.Errorf("variant %d has the same ID as the base spec", i)
		}
	}
}

func TestSweepSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*SweepSpec)
		want string
	}{
		{"no points", func(s *SweepSpec) { s.Points = nil }, "no points"},
		{"bad scaling", func(s *SweepSpec) { s.Scaling = "weak" }, "scaling"},
		{"bad fault profile", func(s *SweepSpec) { s.Faults = "nonesuch" }, "fault"},
		{"bad protocol", func(s *SweepSpec) { s.Points[0].Protocol = "MOESI" }, "protocol"},
		{"zero cores", func(s *SweepSpec) { s.Points[0].Cores = 0 }, "cores"},
		{"bad app", func(s *SweepSpec) { s.Points[0].App = "NoSuchApp" }, "NoSuchApp"},
		{"negative run timeout", func(s *SweepSpec) { s.RunTimeoutMS = -5 }, "negative run timeout"},
	}
	for _, tc := range bad {
		s := testSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecConfigMatchesSession guards the determinism contract at its root:
// the Config a farm worker derives from a spec must hash identically to the
// one Session.SweepContext derives for the same point, or journal dedup and
// fingerprint equality silently break.
func TestSpecConfigMatchesSession(t *testing.T) {
	spec := testSpec()
	for _, p := range spec.Points {
		want := scalablebulk.ConfigHash(scalablebulk.SweepPointConfig(p, spec.ChunksPerCore, spec.Seed))
		got := scalablebulk.ConfigHash(spec.Config(p))
		if got != want {
			t.Errorf("%s/%s/%d: farm config hash %s != session %s",
				p.App, p.Protocol, p.Cores, got, want)
		}
	}
	// Defaulted chunks (≤0) must match the Session default too.
	d := testSpec()
	d.ChunksPerCore = 0
	s := scalablebulk.NewSession(0, d.Seed, nil)
	for _, p := range d.Points {
		want := scalablebulk.ConfigHash(s.Config(p))
		if got := scalablebulk.ConfigHash(d.Config(p)); got != want {
			t.Errorf("defaulted chunks: %s/%s/%d hash mismatch", p.App, p.Protocol, p.Cores)
		}
	}
}

// TestSpecConfigFixedScaling checks sbsim's literal semantics: every point
// gets ChunksPerCore verbatim, exactly as DefaultConfig + overrides.
func TestSpecConfigFixedScaling(t *testing.T) {
	spec := testSpec()
	spec.Scaling = ScalingFixed
	spec.ChunksPerCore = 5
	for _, p := range spec.Points {
		want := scalablebulk.DefaultConfig(p.Cores, p.Protocol)
		want.Seed = spec.Seed
		want.ChunksPerCore = 5
		if got := spec.Config(p); scalablebulk.ConfigHash(got) != scalablebulk.ConfigHash(want) {
			t.Errorf("%s/%s/%d: fixed-scaling config diverges from DefaultConfig",
				p.App, p.Protocol, p.Cores)
		}
		if got := spec.Config(p); got.ChunksPerCore != 5 {
			t.Errorf("fixed scaling gave ChunksPerCore=%d, want 5", got.ChunksPerCore)
		}
	}
}

func TestRPCFaultByName(t *testing.T) {
	for _, name := range RPCFaultNames() {
		p, err := RPCFaultByName(name, 1)
		if err != nil || p == nil {
			t.Errorf("profile %q: %v", name, err)
		}
	}
	for _, off := range []string{"", "off", "none"} {
		if p, err := RPCFaultByName(off, 1); err != nil || p != nil {
			t.Errorf("%q: got %+v, %v; want nil, nil", off, p, err)
		}
	}
	if _, err := RPCFaultByName("nonesuch", 1); err == nil {
		t.Error("unknown profile accepted")
	}
}
