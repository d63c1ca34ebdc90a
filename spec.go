package scalablebulk

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"scalablebulk/internal/event"
	"scalablebulk/internal/fault"
	"scalablebulk/internal/workload"
)

// DefaultChunksPerCore is the work budget a SweepSpec (and so a Session)
// with ChunksPerCore ≤ 0 runs: chunks per core at 64 processors, sized for
// minutes-scale regeneration of every figure.
const DefaultChunksPerCore = 16

// Scaling names for SweepSpec.Scaling.
const (
	// ScalingStrong divides the fixed total work budget (64×ChunksPerCore
	// chunks) across the cores of each point — the strong-scaling
	// semantics every figure sweep uses.
	ScalingStrong = "strong"
	// ScalingFixed gives every point ChunksPerCore chunks per core
	// verbatim — sbsim's literal semantics.
	ScalingFixed = "fixed"
)

// SweepSpec describes one sweep: every knob that feeds the canonical Config
// of its points, plus the point list itself. A Session runs a spec
// in-process and the farm runs it on workers; both derive each point's
// Config through Config, so the two give the same ConfigHash, journal keys
// and ResultFingerprints. It is also the farm's wire format: two specs that
// marshal identically have the same ID, which makes submission idempotent.
type SweepSpec struct {
	// ChunksPerCore sizes the work budget (interpreted per Scaling);
	// ≤0 selects DefaultChunksPerCore under strong scaling and the Table 2
	// default under fixed scaling.
	ChunksPerCore int `json:"chunks_per_core,omitempty"`
	// Scaling is ScalingStrong (default) or ScalingFixed.
	Scaling string `json:"scaling,omitempty"`
	// Seed is the base PRNG seed shared by every point.
	Seed int64 `json:"seed,omitempty"`
	// Faults names a fault-injection profile ("", "off", "none" disable).
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the injector; zero reuses Seed. It is ignored while
	// faults are off.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// MaxCycles overrides the deadlock-guard budget when nonzero.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// RunTimeoutMS bounds each run's wall-clock time when positive; 0 is
	// no budget and Validate rejects a negative value.
	RunTimeoutMS int64 `json:"run_timeout_ms,omitempty"`
	// Check wires the online invariant checker into every run.
	Check bool `json:"check,omitempty"`
	// Points is the sweep's point list, in submission order.
	Points []Point `json:"points"`
}

// ID is the sweep's identity: the SHA-256 of the spec's canonical JSON,
// truncated to 16 hex characters. Identical specs — same knobs, same points
// in the same order — collapse to the same sweep on resubmission.
func (s *SweepSpec) ID() string {
	data, _ := json.Marshal(s)
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8])
}

// Validate rejects a spec whose points could not run: unknown protocols,
// unresolvable app labels, unknown fault profiles, a bad scaling name, or a
// negative run timeout (which Config would silently read as no budget).
// The farm validates at submit, so a typo fails the POST, not a worker
// attempt minutes later.
func (s *SweepSpec) Validate() error {
	if len(s.Points) == 0 {
		return fmt.Errorf("sweep spec has no points")
	}
	switch s.Scaling {
	case "", ScalingStrong, ScalingFixed:
	default:
		return fmt.Errorf("unknown scaling %q (want %q or %q)",
			s.Scaling, ScalingStrong, ScalingFixed)
	}
	if _, err := fault.ByName(s.Faults); err != nil {
		return err
	}
	if s.RunTimeoutMS < 0 {
		return fmt.Errorf("negative run timeout %d ms (0 disables the budget)", s.RunTimeoutMS)
	}
	for _, p := range s.Points {
		if !IsProtocol(p.Protocol) {
			return fmt.Errorf("point %s/%s/%d: unknown protocol %q",
				p.App, p.Protocol, p.Cores, p.Protocol)
		}
		if p.Cores < 1 {
			return fmt.Errorf("point %s/%s/%d: cores must be ≥ 1",
				p.App, p.Protocol, p.Cores)
		}
		if _, _, err := s.Resolve(p); err != nil {
			return fmt.Errorf("point %s/%s/%d: %w", p.App, p.Protocol, p.Cores, err)
		}
	}
	return nil
}

// Config materializes the exact Config point p runs under: the Table 2
// defaults for its machine, the seed, the work budget divided per Scaling,
// then the spec's overrides. It is the one derivation of a point's Config,
// shared by the Session, the farm server and its workers.
func (s *SweepSpec) Config(p Point) Config {
	cfg := DefaultConfig(p.Cores, p.Protocol)
	cfg.Seed = s.Seed
	switch {
	case s.Scaling != ScalingFixed:
		cpc := s.ChunksPerCore
		if cpc <= 0 {
			cpc = DefaultChunksPerCore
		}
		cfg.ChunksPerCore = max(64*cpc/p.Cores, 1)
	case s.ChunksPerCore > 0:
		cfg.ChunksPerCore = s.ChunksPerCore
	}
	if s.MaxCycles > 0 {
		cfg.MaxCycles = event.Time(s.MaxCycles)
	}
	if s.RunTimeoutMS > 0 {
		cfg.RunTimeout = time.Duration(s.RunTimeoutMS) * time.Millisecond
	}
	if prof, err := fault.ByName(s.Faults); err == nil && prof != nil {
		cfg.Faults = prof
		cfg.FaultSeed = s.FaultSeed
	}
	cfg.Check = s.Check
	return cfg
}

// Resolve returns the profile and Config of one point, with its App label
// resolved by ResolvePointProfile.
func (s *SweepSpec) Resolve(p Point) (Profile, Config, error) {
	cfg := s.Config(p)
	prof, err := ResolvePointProfile(p.App, &cfg)
	return prof, cfg, err
}

// SweepPointConfig is the Config a strong-scaling spec of chunksPerCore and
// seed gives point p: (&SweepSpec{ChunksPerCore: chunksPerCore, Seed:
// seed}).Config(p).
func SweepPointConfig(p Point, chunksPerCore int, seed int64) Config {
	return (&SweepSpec{ChunksPerCore: chunksPerCore, Seed: seed}).Config(p)
}

// ResolvePointProfile resolves a sweep point's App label: an application
// model by name, or a registered workload source sweeping under its own name
// (cfg.Workload is set to the source, "" for a model). The label is the
// only way a point chooses its chunk source.
func ResolvePointProfile(app string, cfg *Config) (prof Profile, err error) {
	prof, cfg.Workload, err = workload.ResolveApp(app)
	return prof, err
}
