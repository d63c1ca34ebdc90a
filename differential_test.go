package scalablebulk

// Differential cross-protocol tests: all four commit protocols implement
// the same chunk-based memory model, so on the same workload they must agree
// on everything the model defines — how many chunks commit and which writes
// reach the directory — even though they disagree on timing, traffic, and
// squash counts. A protocol that drops, duplicates, or misattributes a
// committed write diverges here.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"scalablebulk/internal/check"
	"scalablebulk/internal/system"
)

// runWithWrites runs one workload source under one protocol and returns the
// result and the committed-write multiset the invariant checker kept. wl ""
// is the synthetic source over prof; an adversarial source runs under its
// label profile.
func runWithWrites(t *testing.T, wl string, prof Profile, protocol string, cores, chunksPerCore int) (*Result, map[check.WriteKey]int) {
	t.Helper()
	cfg := DefaultConfig(cores, protocol)
	cfg.ChunksPerCore = chunksPerCore
	cfg.Seed = 11
	cfg.Workload = wl
	// The checker vets every run: chunks [0, chunksPerCore) commit exactly
	// once each in program order (I2, I4). Finish also drains in-flight
	// protocol stragglers after the last core finishes (e.g. BulkSC's final
	// ArbDone, which applies that chunk's writes at the arbiter), so the
	// write multisets compare quiescent states.
	cfg.Check = true
	m, err := system.Build(prof, cfg)
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", wl, prof.Name, protocol, err)
	}
	r, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", wl, prof.Name, protocol, err)
	}
	return r, m.Check.Writes()
}

// conflictFreeProfile builds a workload whose chunk footprints are entirely
// private to each thread: no shared accesses, no scatter writes, no hot
// lines. No pair of chunks from different cores can conflict.
func conflictFreeProfile() Profile {
	return Profile{
		Name: "ConflictFree", Suite: "TEST",
		ChunkInstr: 2000, Accesses: 12, WriteFrac: 0.4,
		SharedFrac: 0, ScatterFrac: 0, ConflictFrac: 0, ReadHotFrac: 0,
		RunLen: 4, SharedPagesPerChunk: 1,
		TotalPrivatePages: 256, SharedPages: 8,
		PrivateSkew: 2, SharedSkew: 1, HotLines: 0,
	}
}

// forcedConflictProfile makes every chunk write the single hot shared line,
// so every pair of concurrent chunks conflicts and the protocols must
// serialize the commits.
func forcedConflictProfile() Profile {
	return Profile{
		Name: "ForcedConflict", Suite: "TEST",
		ChunkInstr: 2000, Accesses: 12, WriteFrac: 0.4,
		SharedFrac: 0.2, ScatterFrac: 0, ConflictFrac: 1, ReadHotFrac: 0,
		RunLen: 4, SharedPagesPerChunk: 1,
		TotalPrivatePages: 256, SharedPages: 8,
		PrivateSkew: 2, SharedSkew: 1, HotLines: 1,
	}
}

// TestDifferentialConflictFree: with disjoint footprints, all four protocols
// must commit every chunk with zero squashes and apply identical
// committed-write multisets.
func TestDifferentialConflictFree(t *testing.T) {
	const cores, chunks = 16, 3
	prof := conflictFreeProfile()

	var refWrites map[check.WriteKey]int
	var refProto string
	for _, protocol := range Protocols {
		r, writes := runWithWrites(t, "", prof, protocol, cores, chunks)
		if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
			t.Errorf("%s: committed %d chunks, want %d", protocol, got, want)
		}
		if r.Squashes != 0 {
			t.Errorf("%s: %d squashes on a conflict-free workload", protocol, r.Squashes)
		}
		for c, n := range r.PerCoreCommitted {
			if n != chunks {
				t.Errorf("%s: core %d committed %d chunks, want %d", protocol, c, n, chunks)
			}
		}
		if refWrites == nil {
			refWrites, refProto = writes, protocol
			if len(writes) == 0 {
				t.Fatalf("%s: no committed writes observed", protocol)
			}
			continue
		}
		if !reflect.DeepEqual(writes, refWrites) {
			t.Errorf("%s committed-write multiset differs from %s: %s",
				protocol, refProto, diffWrites(refWrites, writes))
		}
	}
}

// TestDifferentialForcedConflict: under maximal contention every chunk still
// commits exactly once per core slot in all four protocols (commits
// serialize rather than deadlock or drop work), and the committed writes are
// identical — squashed executions are re-executed bit-identically.
func TestDifferentialForcedConflict(t *testing.T) {
	const cores, chunks = 16, 3
	prof := forcedConflictProfile()

	var refWrites map[check.WriteKey]int
	var refProto string
	sawSquash := false
	for _, protocol := range Protocols {
		r, writes := runWithWrites(t, "", prof, protocol, cores, chunks)
		if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
			t.Errorf("%s: committed %d chunks, want %d", protocol, got, want)
		}
		for c, n := range r.PerCoreCommitted {
			if n != chunks {
				t.Errorf("%s: core %d committed %d chunks, want %d", protocol, c, n, chunks)
			}
		}
		if r.Squashes > 0 {
			sawSquash = true
		}
		if refWrites == nil {
			refWrites, refProto = writes, protocol
			continue
		}
		if !reflect.DeepEqual(writes, refWrites) {
			t.Errorf("%s committed-write multiset differs from %s: %s",
				protocol, refProto, diffWrites(refWrites, writes))
		}
	}
	if !sawSquash {
		t.Error("forced-conflict workload squashed nothing under any protocol; the workload is not exercising conflicts")
	}
}

// matrixWorkloads enumerates every registered workload source with the
// profile it runs under: a small synthetic application model for the default
// source, the source's own label for the adversarial family.
func matrixWorkloads(t *testing.T) []struct {
	Name string
	Prof Profile
} {
	t.Helper()
	var out []struct {
		Name string
		Prof Profile
	}
	for _, w := range RegisteredWorkloads() {
		prof, ok := WorkloadProfile(w.Name)
		if !ok {
			prof = forcedConflictProfile() // the synthetic default, under contention
		}
		out = append(out, struct {
			Name string
			Prof Profile
		}{w.Name, prof})
	}
	if len(out) < 5 {
		t.Fatalf("workload registry has %d sources, want the synthetic default plus ≥4 adversarial", len(out))
	}
	return out
}

// TestDifferentialWorkloadMatrix runs every evaluated protocol against every
// registered workload source — synthetic plus the adversarial family — and
// requires, per workload: all chunks committed in program order (the
// checker's I2 and I4), and identical committed-write multisets across
// protocols. This
// is the cross product the workload registry exists to buy: a new source
// registered anywhere is confronted with every protocol here for free.
func TestDifferentialWorkloadMatrix(t *testing.T) {
	const cores, chunks = 8, 3
	for _, w := range matrixWorkloads(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var refWrites map[check.WriteKey]int
			var refProto string
			for _, protocol := range Protocols {
				r, writes := runWithWrites(t, w.Name, w.Prof, protocol, cores, chunks)
				if got, want := r.ChunksCommitted, uint64(cores*chunks); got != want {
					t.Errorf("%s/%s: committed %d chunks, want %d", w.Name, protocol, got, want)
				}
				if refWrites == nil {
					refWrites, refProto = writes, protocol
					if len(writes) == 0 {
						t.Fatalf("%s/%s: no committed writes observed", w.Name, protocol)
					}
					continue
				}
				if !reflect.DeepEqual(writes, refWrites) {
					t.Errorf("%s: %s committed-write multiset differs from %s: %s",
						w.Name, protocol, refProto, diffWrites(refWrites, writes))
				}
			}
		})
	}
}

// diffWrites summarizes the first few differences between two multisets.
func diffWrites(a, b map[check.WriteKey]int) string {
	var out string
	n := 0
	for k, va := range a {
		if vb := b[k]; va != vb && n < 5 {
			out += fmt.Sprintf(" line %#x by core %d: %d vs %d;", uint64(k.Line), k.Writer, va, vb)
			n++
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok && n < 5 {
			out += fmt.Sprintf(" line %#x by core %d: absent vs %d;", uint64(k.Line), k.Writer, vb)
			n++
		}
	}
	if out == "" {
		out = fmt.Sprintf(" sizes %d vs %d", len(a), len(b))
	}
	return out
}
