// Package fault is a seeded, deterministic fault injector for the simulated
// interconnect. It implements mesh.Interposer: every message the network
// would deliver passes through Plan, which may add delay jitter (reordering
// messages relative to each other), duplicate the message, model a transient
// loss as a link-level retransmission (detect + resend delay; nothing is ever
// permanently lost — the protocols assume a reliable fabric), or degrade a
// hot node whose links are slow.
//
// Faults are configured per traffic class by a Profile and drawn from a
// single seeded PRNG, so a (profile, seed) pair replays bit-identically: the
// simulator is single-threaded and message injection order is deterministic,
// hence the injector's draw sequence is too.
package fault

import (
	"fmt"
	"math/rand"

	"scalablebulk/internal/event"
	"scalablebulk/internal/mesh"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/rng"
	"scalablebulk/internal/trace"
)

// ClassFaults configures the faults applied to one traffic class.
type ClassFaults struct {
	// DelayProb is the chance a delivery is jittered by up to DelayMax
	// extra cycles (uniform in [1, DelayMax]). Jitter larger than the
	// inter-message spacing reorders messages.
	DelayProb float64
	DelayMax  event.Time
	// DupProb is the chance the message is delivered twice; the duplicate
	// is an independent deep copy arriving up to DupDelayMax cycles after
	// the primary delivery.
	DupProb     float64
	DupDelayMax event.Time
	// DropProb is the chance a delivery attempt is transiently lost. Each
	// loss costs the profile's RetransmitDelay before the resend arrives;
	// consecutive losses compound up to MaxRetransmits.
	DropProb float64
}

func (c ClassFaults) enabled() bool {
	return c.DelayProb > 0 || c.DupProb > 0 || c.DropProb > 0
}

// Profile names a reproducible fault scenario.
type Profile struct {
	Name string
	Desc string
	// PerClass holds the fault rates for each msg.Class.
	PerClass [msg.NumClasses]ClassFaults
	// RetransmitDelay is the link-level loss-detection + resend time paid
	// per transient loss.
	RetransmitDelay event.Time
	// MaxRetransmits caps consecutive losses of one message (the resend
	// after the cap always gets through).
	MaxRetransmits int
	// HotNode, if ≥ 0, degrades every non-local message to or from that
	// node by HotDelay cycles ("hot link" / "slow node").
	HotNode  int
	HotDelay event.Time
}

// Enabled reports whether the profile injects any fault at all.
func (p *Profile) Enabled() bool {
	if p == nil {
		return false
	}
	for _, c := range p.PerClass {
		if c.enabled() {
			return true
		}
	}
	return p.HotNode >= 0 && p.HotDelay > 0
}

// Stats counts injected faults.
type Stats struct {
	Planned     uint64 // messages seen by the injector
	Delayed     uint64 // deliveries jittered
	Duplicated  uint64 // extra copies created
	Retransmits uint64 // transient losses (each adds one resend delay)
	HotHits     uint64 // deliveries degraded by the hot node
}

// Injector applies a Profile to a message stream. It implements
// mesh.Interposer.
type Injector struct {
	prof  Profile
	rng   *rand.Rand
	stats Stats

	// Trace, when non-nil, records every injected fault as a structured
	// event. Emission never draws from the PRNG, so tracing a faulted run
	// does not perturb its replay.
	Trace *trace.Tracer
}

var _ mesh.Interposer = (*Injector)(nil)

// New builds an injector for the profile, seeded for replay.
func New(prof Profile, seed int64) *Injector {
	return &Injector{prof: prof, rng: rng.New(seed)}
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile { return in.prof }

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// Plan implements mesh.Interposer. Local (Src == Dst) deliveries model
// intra-tile wires and are never faulted.
func (in *Injector) Plan(m *msg.Msg, now, at event.Time) []mesh.Delivery {
	in.stats.Planned++
	if m.Src == m.Dst {
		return []mesh.Delivery{{At: at, M: m}}
	}
	cf := in.prof.PerClass[m.Kind.ClassOf()]
	t := at

	if in.prof.HotNode >= 0 && in.prof.HotDelay > 0 &&
		(m.Src == in.prof.HotNode || m.Dst == in.prof.HotNode) {
		t += in.prof.HotDelay
		in.stats.HotHits++
		in.Trace.Fault(trace.KFaultHot, m)
	}
	if cf.DelayProb > 0 && in.rng.Float64() < cf.DelayProb {
		t += 1 + event.Time(in.rng.Int63n(int64(cf.DelayMax)))
		in.stats.Delayed++
		in.Trace.Fault(trace.KFaultDelay, m)
	}
	if cf.DropProb > 0 {
		for r := 0; r < in.prof.MaxRetransmits; r++ {
			if in.rng.Float64() >= cf.DropProb {
				break
			}
			t += in.prof.RetransmitDelay
			in.stats.Retransmits++
			in.Trace.Fault(trace.KFaultRetransmit, m)
		}
	}
	out := []mesh.Delivery{{At: t, M: m}}
	if cf.DupProb > 0 && in.rng.Float64() < cf.DupProb {
		dupAt := t + 1
		if cf.DupDelayMax > 0 {
			dupAt += event.Time(in.rng.Int63n(int64(cf.DupDelayMax)))
		}
		out = append(out, mesh.Delivery{At: dupAt, M: m.Clone()})
		in.stats.Duplicated++
		in.Trace.Fault(trace.KFaultDup, m)
	}
	return out
}

// String summarizes the fault counters.
func (s Stats) String() string {
	return fmt.Sprintf("planned=%d delayed=%d duplicated=%d retransmits=%d hot=%d",
		s.Planned, s.Delayed, s.Duplicated, s.Retransmits, s.HotHits)
}
