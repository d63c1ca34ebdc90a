package scalablebulk

// Protocol conformance suite: every row of the protocol table — the paper's
// four evaluated protocols AND every variant (today: the OCI-off ablation;
// tomorrow: whatever a contributor adds per DESIGN.md §12) — must honor the
// simulator-wide contracts the differential tests pin for the evaluated
// four: bit-identical determinism under a fixed seed, all chunks committed
// with zero squashes on a conflict-free workload, and identical
// committed-write serialization under forced conflicts. A new table row gets
// this suite for free; nothing here names a concrete engine.

import (
	"reflect"
	"testing"

	"scalablebulk/internal/check"
	"scalablebulk/internal/explore"
)

// conformanceNames enumerates every registered protocol, evaluated first.
func conformanceNames() []string {
	var out []string
	for _, p := range RegisteredProtocols() {
		out = append(out, p.Name)
	}
	return out
}

// TestRegistryContents pins the protocol table: the four Table 3
// protocols in the paper's order (all marked evaluated), the OCI-off variant
// after them (not evaluated), and a one-line doc for every entry.
func TestRegistryContents(t *testing.T) {
	infos := RegisteredProtocols()
	want := []string{ProtoScalableBulk, ProtoTCC, ProtoSEQ, ProtoBulkSC}
	if len(infos) < len(want)+1 {
		t.Fatalf("registry has %d protocols, want at least %d: %+v", len(infos), len(want)+1, infos)
	}
	for i, name := range want {
		if infos[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q (Table 3 order)", i, infos[i].Name, name)
		}
		if !infos[i].Evaluated {
			t.Errorf("%s must be marked evaluated", name)
		}
	}
	if !reflect.DeepEqual(Protocols, want) {
		t.Errorf("Protocols = %v, want the evaluated four %v", Protocols, want)
	}
	sawNoOCI := false
	for _, p := range infos {
		if p.Doc == "" {
			t.Errorf("%s registered without a doc line", p.Name)
		}
		if p.Name == ProtoNoOCI {
			sawNoOCI = true
			if p.Evaluated {
				t.Error("the OCI ablation is a variant, not an evaluated protocol")
			}
		}
	}
	if !sawNoOCI {
		t.Errorf("OCI-off variant %q missing from the registry", ProtoNoOCI)
	}
}

// TestConformanceDeterminism: every registered protocol, variants included,
// produces a byte-identical fingerprint on repeated runs of one seed.
func TestConformanceDeterminism(t *testing.T) {
	const app, seed = "Barnes", 7
	for _, name := range conformanceNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			first := serialFingerprint(t, app, name, 16, seed)
			again := serialFingerprint(t, app, name, 16, seed)
			if first != again {
				t.Errorf("two serial runs differ:\n--- run 1\n%s--- run 2\n%s", first, again)
			}
		})
	}
}

// TestConformanceConflictFree: on disjoint per-thread footprints every
// registered protocol commits all chunks, squashes nothing, and applies the
// same committed-write multiset as the others.
func TestConformanceConflictFree(t *testing.T) {
	const cores, chunks = 16, 3
	prof := conflictFreeProfile()
	var refWrites map[check.WriteKey]int
	var refProto string
	for _, name := range conformanceNames() {
		r, writes := runWithWrites(t, "", prof, name, cores, chunks)
		if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
			t.Errorf("%s: committed %d chunks, want %d", name, got, want)
		}
		if r.Squashes != 0 {
			t.Errorf("%s: %d squashes on a conflict-free workload", name, r.Squashes)
		}
		if refWrites == nil {
			refWrites, refProto = writes, name
			if len(writes) == 0 {
				t.Fatalf("%s: no committed writes observed", name)
			}
			continue
		}
		if !reflect.DeepEqual(writes, refWrites) {
			t.Errorf("%s committed-write multiset differs from %s: %s",
				name, refProto, diffWrites(refWrites, writes))
		}
	}
}

// TestConformanceForcedConflict: under maximal contention every registered
// protocol still commits each chunk exactly once and serializes to the same
// committed-write multiset.
func TestConformanceForcedConflict(t *testing.T) {
	const cores, chunks = 16, 3
	prof := forcedConflictProfile()
	var refWrites map[check.WriteKey]int
	var refProto string
	for _, name := range conformanceNames() {
		r, writes := runWithWrites(t, "", prof, name, cores, chunks)
		if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
			t.Errorf("%s: committed %d chunks, want %d", name, got, want)
		}
		if refWrites == nil {
			refWrites, refProto = writes, name
			continue
		}
		if !reflect.DeepEqual(writes, refWrites) {
			t.Errorf("%s committed-write multiset differs from %s: %s",
				name, refProto, diffWrites(refWrites, writes))
		}
	}
}

// TestWorkloadRegistryContents pins the workload-source table: the
// synthetic default first, at least four adversarial generators, and a doc
// line on every entry.
func TestWorkloadRegistryContents(t *testing.T) {
	infos := RegisteredWorkloads()
	if len(infos) == 0 || infos[0].Name != "synthetic" {
		t.Fatalf("workload registry must list the synthetic default first, got %+v", infos)
	}
	if infos[0].Adversarial {
		t.Error("the synthetic default must not be marked adversarial")
	}
	adversarial := 0
	for _, w := range infos {
		if w.Doc == "" {
			t.Errorf("%s registered without a doc line", w.Name)
		}
		if w.Adversarial {
			adversarial++
		}
		if w.Name != "synthetic" {
			if _, ok := WorkloadProfile(w.Name); !ok {
				t.Errorf("%s has no label profile; sweeps cannot address it", w.Name)
			}
		}
	}
	if adversarial < 4 {
		t.Errorf("registry has %d adversarial generators, want ≥4", adversarial)
	}
	for _, name := range []string{"zipf", "pipeline", "convoy", "stormdir", "kvstore"} {
		if _, ok := WorkloadProfile(name); !ok {
			t.Errorf("adversarial generator %q not registered", name)
		}
	}
}

// TestConformanceWorkloadMatrix runs every registered protocol — variants
// included — against every registered workload source, requiring all chunks
// committed in per-core program order and cross-protocol agreement on the
// committed-write multiset. The differential matrix covers the evaluated
// four; this is the same contract extended to whatever else registered.
func TestConformanceWorkloadMatrix(t *testing.T) {
	const cores, chunks = 8, 2
	for _, w := range matrixWorkloads(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var refWrites map[check.WriteKey]int
			var refProto string
			for _, name := range conformanceNames() {
				r, writes := runWithWrites(t, w.Name, w.Prof, name, cores, chunks)
				if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
					t.Errorf("%s/%s: committed %d chunks, want %d", w.Name, name, got, want)
				}
				if refWrites == nil {
					refWrites, refProto = writes, name
					continue
				}
				if !reflect.DeepEqual(writes, refWrites) {
					t.Errorf("%s: %s committed-write multiset differs from %s: %s",
						w.Name, name, refProto, diffWrites(refWrites, writes))
				}
			}
		})
	}
}

// TestConformanceWorkloadDeterminism: every registered workload source is
// bit-identical per seed (two serial runs agree) and actually seeded (a
// different seed moves the fingerprint).
func TestConformanceWorkloadDeterminism(t *testing.T) {
	for _, w := range RegisteredWorkloads() {
		if !w.Adversarial {
			continue // the synthetic source is covered by TestConformanceDeterminism
		}
		name := w.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := serialFingerprint(t, name, ProtoScalableBulk, 16, 7)
			again := serialFingerprint(t, name, ProtoScalableBulk, 16, 7)
			if first != again {
				t.Errorf("two serial runs differ:\n--- run 1\n%s--- run 2\n%s", first, again)
			}
			other := serialFingerprint(t, name, ProtoScalableBulk, 16, 8)
			if other == first {
				t.Errorf("seed 7 and seed 8 produced identical fingerprints; the source ignores its seed")
			}
		})
	}
}

// TestConformanceModelCheck: every registered protocol survives a bounded
// systematic exploration of its 2-core × 2-chunk forced-conflict
// interleavings with no invariant, serializability, liveness or quiescence
// violation. The budget keeps this a smoke (a few hundred schedules per
// protocol; "bounded" is an acceptable outcome) — cmd/sbcheck runs the same
// exploration to exhaustion, and CI's check-smoke job does so for every
// protocol on every push.
func TestConformanceModelCheck(t *testing.T) {
	for _, name := range conformanceNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := explore.DefaultOptions(name)
			opts.MaxRuns = 500
			opts.MaxStates = 5000
			rep, err := explore.Explore(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", rep.Summary())
			if !rep.Clean() {
				t.Errorf("model checker found a violation: %s\ncounterexample choices: %v\n%s",
					rep.Violation, rep.Schedule.Choices, rep.Dump)
			}
		})
	}
}
