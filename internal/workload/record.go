package workload

// Trace record and replay (DESIGN.md §14): a Recording interposes on any
// registered source and captures every chunk the simulator requests —
// warm-up included — into an internal/tracefmt trace; a replay source serves
// a decoded trace back, reproducing the recorded run bit-identically
// (ResultFingerprint-verified by the replay suite). Real traces and
// fuzzer/sbcheck-minimized regressions thereby become first-class workloads:
// anything expressible as a trace file runs under every registered protocol.

import (
	"fmt"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/tracefmt"
)

// Recording captures the chunk streams of exactly one run. Build one with
// Record, pass the factory as Config.WorkloadFactory, run, then call Trace.
type Recording struct {
	spec   string
	warmup map[tracefmt.Key]tracefmt.Rec
	chunks map[tracefmt.Key]tracefmt.Rec
	hdr    tracefmt.Header
	used   bool
}

// Record resolves spec (a registry name or "replay:PATH") and returns a
// Recording plus the factory that instruments it. The factory supports a
// single run: recording interleaved streams of two machines into one trace
// would be meaningless, so a second instantiation fails.
func Record(spec string) (*Recording, Factory, error) {
	inner, err := Resolve(spec)
	if err != nil {
		return nil, nil, err
	}
	if spec == "" {
		spec = SourceName
	}
	rec := &Recording{
		spec:   spec,
		warmup: map[tracefmt.Key]tracefmt.Rec{},
		chunks: map[tracefmt.Key]tracefmt.Rec{},
	}
	factory := func(prof Profile, threads int, seed int64) (Source, error) {
		if rec.used {
			return nil, fmt.Errorf("workload: a Recording captures a single run; build a new one per run")
		}
		rec.used = true
		src, err := inner(prof, threads, seed)
		if err != nil {
			return nil, err
		}
		rec.hdr = tracefmt.Header{
			App: prof.Name, Source: spec, Threads: threads,
			PagesPerThread: src.PagesPerThread(), Seed: seed,
		}
		return &recorder{rec: rec, inner: src}, nil
	}
	return rec, factory, nil
}

// SetRunMeta attaches the recording run's provenance: its protocol and the
// SHA-256 hex of its ResultFingerprint. Pass "" for the fingerprint when the
// run used a fault profile or the invariant checker: the header records
// neither, so a replay could not reproduce it. A replay under the recorded
// protocol compares its own fingerprint with a non-empty one (sbsim exits 1
// on drift).
func (r *Recording) SetRunMeta(protocol, fingerprintSHA string) {
	r.hdr.Protocol = protocol
	r.hdr.Fingerprint = fingerprintSHA
}

// Trace assembles the captured streams into a canonical trace. ChunksPerCore
// and WarmupPerCore are derived from what the run actually requested.
func (r *Recording) Trace() *tracefmt.Trace {
	t := &tracefmt.Trace{Header: r.hdr}
	maxSeq, maxWarm := -1, -1
	for k, rec := range r.chunks {
		t.Chunks = append(t.Chunks, rec)
		if int(k.Seq) > maxSeq {
			maxSeq = int(k.Seq)
		}
	}
	for k, rec := range r.warmup {
		t.Warmup = append(t.Warmup, rec)
		if int(k.Seq) > maxWarm {
			maxWarm = int(k.Seq)
		}
	}
	t.Header.ChunksPerCore = maxSeq + 1
	t.Header.WarmupPerCore = maxWarm + 1
	tracefmt.SortRecs(t.Warmup)
	tracefmt.SortRecs(t.Chunks)
	return t
}

// recorder wraps the live source and keeps the first copy of each key. A
// run requests each chunk once (the processor re-executes squashed and
// abandoned chunks from its own copy), and a pure source would return the
// same chunk again, so one copy suffices.
type recorder struct {
	rec   *Recording
	inner Source
}

func (r *recorder) PagesPerThread() int { return r.inner.PagesPerThread() }

func (r *recorder) NextChunk(proc int, seq uint64) *chunk.Chunk {
	ck := r.inner.NextChunk(proc, seq)
	k := tracefmt.Key{Proc: proc, Seq: seq}
	if _, ok := r.rec.chunks[k]; !ok {
		r.rec.chunks[k] = tracefmt.Rec{Proc: proc, Seq: seq, Instr: ck.Instr, Accesses: ck.Accesses}
	}
	return ck
}

func (r *recorder) WarmupChunk(proc int, i int) *chunk.Chunk {
	ck := r.inner.WarmupChunk(proc, i)
	k := tracefmt.Key{Proc: proc, Seq: uint64(i)}
	if _, ok := r.rec.warmup[k]; !ok {
		r.rec.warmup[k] = tracefmt.Rec{Proc: proc, Seq: uint64(i), Instr: ck.Instr, Accesses: ck.Accesses}
	}
	return ck
}

// Replay builds a factory serving the decoded trace. The factory checks the
// thread count; chunk and warm-up budgets are checked by internal/system
// through the Validator contract before the run starts.
func Replay(t *tracefmt.Trace) Factory {
	return func(prof Profile, threads int, seed int64) (Source, error) {
		if threads != t.Header.Threads {
			return nil, fmt.Errorf("workload: trace recorded at %d cores, machine has %d",
				t.Header.Threads, threads)
		}
		rs := &replaySource{
			tr:     t,
			warmup: make(map[tracefmt.Key]*tracefmt.Rec, len(t.Warmup)),
			chunks: make(map[tracefmt.Key]*tracefmt.Rec, len(t.Chunks)),
		}
		for i := range t.Warmup {
			r := &t.Warmup[i]
			rs.warmup[tracefmt.Key{Proc: r.Proc, Seq: r.Seq}] = r
		}
		for i := range t.Chunks {
			r := &t.Chunks[i]
			rs.chunks[tracefmt.Key{Proc: r.Proc, Seq: r.Seq}] = r
		}
		return rs, nil
	}
}

// ReplayFile defers reading PATH to run construction, so a missing or
// corrupt file surfaces as a build error on the run that needs it.
func ReplayFile(path string) Factory {
	return func(prof Profile, threads int, seed int64) (Source, error) {
		t, err := tracefmt.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return Replay(t)(prof, threads, seed)
	}
}

type replaySource struct {
	tr     *tracefmt.Trace
	warmup map[tracefmt.Key]*tracefmt.Rec
	chunks map[tracefmt.Key]*tracefmt.Rec
}

func (r *replaySource) PagesPerThread() int { return r.tr.Header.PagesPerThread }

// Validate implements Validator: a run may consume at most what was
// recorded. (Bit-identical reproduction additionally needs the exact
// recorded ChunksPerCore and WarmupChunks, which the replay tools adopt from
// the header.)
func (r *replaySource) Validate(cores, chunksPerCore, warmupChunks int) error {
	h := r.tr.Header
	if cores != h.Threads {
		return fmt.Errorf("workload: trace recorded at %d cores, machine has %d", h.Threads, cores)
	}
	if chunksPerCore > h.ChunksPerCore {
		return fmt.Errorf("workload: trace records %d chunks/core, run wants %d",
			h.ChunksPerCore, chunksPerCore)
	}
	if warmupChunks > h.WarmupPerCore {
		return fmt.Errorf("workload: trace records %d warm-up chunks/core, run wants %d",
			h.WarmupPerCore, warmupChunks)
	}
	return nil
}

func (r *replaySource) NextChunk(proc int, seq uint64) *chunk.Chunk {
	rec, ok := r.chunks[tracefmt.Key{Proc: proc, Seq: seq}]
	if !ok {
		panic(fmt.Sprintf("workload: replayed trace has no chunk for core %d seq %d (recorded %d chunks/core at %d cores)",
			proc, seq, r.tr.Header.ChunksPerCore, r.tr.Header.Threads))
	}
	return rec.Chunk(msg.CTag{Proc: proc, Seq: seq})
}

func (r *replaySource) WarmupChunk(proc int, i int) *chunk.Chunk {
	rec, ok := r.warmup[tracefmt.Key{Proc: proc, Seq: uint64(i)}]
	if !ok {
		panic(fmt.Sprintf("workload: replayed trace has no warm-up chunk for core %d index %d (recorded %d/core)",
			proc, i, r.tr.Header.WarmupPerCore))
	}
	return rec.Chunk(msg.CTag{Proc: proc, Seq: ^uint64(0) - uint64(i)})
}
