package fault

import (
	"fmt"
	"sort"

	"scalablebulk/internal/msg"
)

// uniform builds a PerClass array applying the same faults to every class.
func uniform(c ClassFaults) (out [msg.NumClasses]ClassFaults) {
	for i := range out {
		out[i] = c
	}
	return out
}

// commitOnly applies faults to the two commit-protocol classes only, leaving
// the read path clean — it stresses the commit state machines specifically.
func commitOnly(c ClassFaults) (out [msg.NumClasses]ClassFaults) {
	out[msg.ClassLargeC] = c
	out[msg.ClassSmallC] = c
	return out
}

// profiles are the built-in named scenarios. Rates are chosen so a faulted
// run completes (watchdogs and retransmissions recover) while every fault
// path fires many times in a short soak.
var profiles = []Profile{
	{
		Name:     "jitter",
		Desc:     "mild delivery jitter on all classes",
		PerClass: uniform(ClassFaults{DelayProb: 0.30, DelayMax: 40}),
		HotNode:  -1,
	},
	{
		Name: "reorder",
		Desc: "aggressive jitter on commit traffic; adjacent protocol messages swap order",
		PerClass: commitOnly(ClassFaults{
			DelayProb: 0.80, DelayMax: 300,
		}),
		HotNode: -1,
	},
	{
		Name: "dup",
		Desc: "commit messages duplicated with delayed copies, plus mild jitter",
		PerClass: commitOnly(ClassFaults{
			DelayProb: 0.20, DelayMax: 60,
			DupProb: 0.10, DupDelayMax: 200,
		}),
		HotNode: -1,
	},
	{
		Name:            "loss",
		Desc:            "transient losses with link-level retransmission on all classes",
		PerClass:        uniform(ClassFaults{DropProb: 0.15}),
		RetransmitDelay: 50,
		MaxRetransmits:  4,
		HotNode:         -1,
	},
	{
		Name:     "hotspot",
		Desc:     "node 0's links degraded, plus mild jitter everywhere",
		PerClass: uniform(ClassFaults{DelayProb: 0.20, DelayMax: 30}),
		HotNode:  0,
		HotDelay: 100,
	},
	{
		Name: "chaos",
		Desc: "jitter + duplication + loss + hot node combined",
		PerClass: commitOnly(ClassFaults{
			DelayProb: 0.50, DelayMax: 200,
			DupProb: 0.08, DupDelayMax: 150,
			DropProb: 0.10,
		}),
		RetransmitDelay: 50,
		MaxRetransmits:  3,
		HotNode:         0,
		HotDelay:        60,
	},
}

// Names returns the built-in profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a built-in profile. "off", "none" and "" mean no faults
// (nil profile).
func ByName(name string) (*Profile, error) {
	switch name {
	case "", "off", "none":
		return nil, nil
	}
	for i := range profiles {
		if profiles[i].Name == name {
			p := profiles[i]
			return &p, nil
		}
	}
	return nil, fmt.Errorf("fault: unknown profile %q (have %v)", name, Names())
}
