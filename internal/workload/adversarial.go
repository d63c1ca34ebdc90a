package workload

// The adversarial generator family: seeded, deterministic chunk streams
// aimed at commit-protocol weak spots rather than at reproducing the paper's
// applications. Each named instance is one parameter block (the same
// named-profile template as internal/fault's injection profiles) listed in
// the workload-source table, so every suite that iterates it — golden,
// conformance, differential, soak — confronts every protocol with these
// patterns for free. Like the synthetic generator, chunk (proc, seq) is a
// pure function of (params, threads, seed), so squashed chunks re-execute
// identically and runs are bit-identical per seed.

import (
	"math"
	"math/rand"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/rng"
	"scalablebulk/internal/sig"
)

// Adversarial-region page layout: each family gets its own base, far from
// both the synthetic shared region (1<<20) and the private region (1<<22),
// so footprints of different kinds can never collide accidentally.
const (
	advZipfBase   = 1<<21 + 0x00000 // zipfian hot pool
	advPipeBase   = 1<<21 + 0x10000 // one buffer page per pipeline stage
	advConvoyBase = 1<<21 + 0x20000 // lock words + queue-head page
	advStormBase  = 1<<21 + 0x30000 // directory-hotspot page array
	advKVBase     = 1<<21 + 0x40000 // KV-store key space

	// advPrivatePages is the adversarial sources' per-thread private
	// working set: a small request-state footprint, not the application
	// working sets the synthetic profiles model.
	advPrivatePages = 16
)

// AdvParams is the shared parameter template of the adversarial family.
// Every named instance fills the subset its kind reads; the zero value of
// an unused field is ignored.
type AdvParams struct {
	Kind string // zipf | pipeline | convoy | stormdir | kvstore

	// Accesses is the line-granular footprint per chunk.
	Accesses int
	// WriteFrac is the write probability of shared accesses (zipf, kvstore).
	WriteFrac float64
	// PrivateFrac is the fraction of accesses directed at the thread's
	// private request state.
	PrivateFrac float64
	// Skew is the zipfian exponent s (> 1) of hot-line / hot-key popularity.
	Skew float64
	// Lines sizes the contended pool: hot lines (zipf) or keys (kvstore).
	Lines int
	// Payload is the producer–consumer block length in lines (pipeline) and
	// the per-chunk page fan-out (stormdir).
	Payload int
	// Locks is the number of contended lock lines (convoy).
	Locks int
	// StormDirs is how many directory modules home the entire storm region
	// (stormdir): every commit's write group converges on these few modules.
	StormDirs int
	// StormPages sizes the storm region (stormdir).
	StormPages int
}

// advSources are the named adversarial generators, in listing order (by
// name). Parameters are sized so conflicts and hotspots fire hard at 8–64
// cores while short test runs still complete under every protocol's
// watchdog.
var advSources = []Descriptor{
	adversarial("convoy",
		"lock convoy: every chunk writes one of a few lock lines (total commit serialization)",
		AdvParams{Kind: "convoy", Accesses: 16, PrivateFrac: 0.5,
			Locks: 2}),
	adversarial("kvstore",
		"millions-of-users KV store: zipf-popular keys over a huge space, read-mostly, no spatial locality",
		AdvParams{Kind: "kvstore", Accesses: 32, WriteFrac: 0.06,
			PrivateFrac: 0.25, Skew: 1.07, Lines: 1 << 17}),
	adversarial("pipeline",
		"producer-consumer pipeline: core p writes the block core p+1 reads (neighbor squash chains)",
		AdvParams{Kind: "pipeline", Accesses: 24, PrivateFrac: 0.3,
			Payload: 8}),
	adversarial("stormdir",
		"directory-hotspot storm: disjoint write sets that all home at two directory modules",
		AdvParams{Kind: "stormdir", Accesses: 24, PrivateFrac: 0.35,
			Payload: 8, StormDirs: 2, StormPages: 128}),
	adversarial("zipf",
		"zipfian hot-line sharing: all cores read/write a skewed hot pool (conflict storm)",
		AdvParams{Kind: "zipf", Accesses: 24, WriteFrac: 0.35,
			PrivateFrac: 0.45, Skew: 1.2, Lines: 64}),
}

// adversarial is the table row of one named adversarial parameter block.
func adversarial(name, doc string, p AdvParams) Descriptor {
	return Descriptor{
		Name: name, Doc: doc, Adversarial: true,
		New: func(_ Profile, threads int, seed int64) (Source, error) {
			return newAdv(name, p, threads, seed), nil
		},
	}
}

// adv implements Source for one adversarial parameter block.
type adv struct {
	name    string
	p       AdvParams
	threads int
	seed    int64
}

func newAdv(name string, p AdvParams, threads int, seed int64) *adv {
	return &adv{name: name, p: p, threads: threads, seed: seed}
}

func (a *adv) PagesPerThread() int { return advPrivatePages }

func (a *adv) NextChunk(proc int, seq uint64) *chunk.Chunk {
	return a.gen(proc, seq, false)
}

func (a *adv) WarmupChunk(proc int, i int) *chunk.Chunk {
	return a.gen(proc, ^uint64(0)-uint64(i), true)
}

// hashName folds the generator name into the seed chain so two generators
// under one seed produce unrelated streams.
func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// streamSeed is the seed of chunk (proc, seq)'s private stream.
func (a *adv) streamSeed(proc int, seq uint64) int64 {
	h := splitmix64(uint64(a.seed) ^ hashName(a.name))
	h = splitmix64(h ^ uint64(proc))
	h = splitmix64(h ^ seq)
	return int64(h)
}

// privateLine picks a line in the thread's private region with skewed reuse.
func (a *adv) privateLine(r *rand.Rand, proc int) sig.Line {
	page := uint64(privateBasePage+proc*privateStride) +
		uint64(math.Pow(r.Float64(), 2.5)*float64(advPrivatePages))
	return sig.Line(page*mem.LinesPerPage + uint64(r.Intn(mem.LinesPerPage)))
}

func (a *adv) gen(proc int, seq uint64, warmup bool) *chunk.Chunk {
	g := rng.Get(a.streamSeed(proc, seq))
	defer rng.Put(g)
	r := g.Rand
	ck := &chunk.Chunk{
		Tag:   msg.CTag{Proc: proc, Seq: seq},
		Instr: 2000,
	}
	if warmup {
		a.genWarmup(r, proc, ck)
		return ck
	}
	switch a.p.Kind {
	case "zipf":
		a.genZipf(r, proc, ck)
	case "pipeline":
		a.genPipeline(r, proc, seq, ck)
	case "convoy":
		a.genConvoy(r, proc, seq, ck)
	case "stormdir":
		a.genStorm(r, proc, ck)
	case "kvstore":
		a.genKV(r, proc, ck)
	default:
		panic("workload: unknown adversarial kind " + a.p.Kind)
	}
	return ck
}

func (a *adv) add(ck *chunk.Chunk, l sig.Line, write bool) {
	ck.Accesses = append(ck.Accesses, chunk.Access{Line: l, Write: write})
}

// genWarmup touches the kind's shared structures with a fixed round-robin
// page-to-core assignment — first-touch homes spread across the machine the
// way an initialization phase would assign them — plus the thread's private
// request state. stormdir is the exception: its whole region is first-touched
// by cores 0..StormDirs-1 only, which is precisely what concentrates every
// commit on those few directory modules.
func (a *adv) genWarmup(r *rand.Rand, proc int, ck *chunk.Chunk) {
	switch a.p.Kind {
	case "zipf":
		pages := poolPages(a.p.Lines)
		for j := proc % a.threads; j < pages; j += a.threads {
			a.add(ck, sig.Line(uint64(advZipfBase+j)*mem.LinesPerPage), false)
		}
	case "pipeline":
		// Each stage initializes its own buffer page (the producer writes
		// it first in a real pipeline).
		a.add(ck, sig.Line(uint64(advPipeBase+proc)*mem.LinesPerPage), true)
	case "convoy":
		if proc == 0 {
			// The lock words and queue head live on one page, homed where
			// the lock was initialized.
			a.add(ck, sig.Line(uint64(advConvoyBase)*mem.LinesPerPage), true)
		}
	case "stormdir":
		if proc < a.p.StormDirs {
			for j := proc; j < a.p.StormPages; j += a.p.StormDirs {
				a.add(ck, sig.Line(uint64(advStormBase+j)*mem.LinesPerPage), false)
			}
		}
	case "kvstore":
		// With a million-key space only the head pages get pre-warmed
		// homes; the tail is first-touched (deterministically) during
		// measurement, like a cold KV cache filling.
		pages := poolPages(a.p.Lines)
		n := 0
		for j := proc % a.threads; j < pages && n < 32; j += a.threads {
			a.add(ck, sig.Line(uint64(advKVBase+j)*mem.LinesPerPage), false)
			n++
		}
	}
	for k := 0; k < 4; k++ {
		a.add(ck, a.privateLine(r, proc), false)
	}
}

// poolPages is how many pages hold a pool of n lines.
func poolPages(n int) int { return (n + mem.LinesPerPage - 1) / mem.LinesPerPage }

// genZipf: every shared access draws a line from a zipf(s) distribution over
// a small hot pool shared by all cores. The head of the distribution is so
// popular that concurrent chunks collide constantly — the true-sharing storm
// the synthetic profiles keep at the paper's ~1.5% squash rate.
func (a *adv) genZipf(r *rand.Rand, proc int, ck *chunk.Chunk) {
	z := rand.NewZipf(r, a.p.Skew, 1, uint64(a.p.Lines-1))
	for len(ck.Accesses) < a.p.Accesses {
		if r.Float64() < a.p.PrivateFrac {
			a.add(ck, a.privateLine(r, proc), false)
			continue
		}
		rank := z.Uint64()
		line := sig.Line(uint64(advZipfBase)*mem.LinesPerPage + rank)
		a.add(ck, line, r.Float64() < a.p.WriteFrac)
	}
}

// genPipeline: stage p consumes the block stage p-1 produced and produces
// its own. Concurrent neighbors conflict on every handoff slot — the squash
// chains ripple down the pipe, the pathological case for eager invalidation.
func (a *adv) genPipeline(r *rand.Rand, proc int, seq uint64, ck *chunk.Chunk) {
	slots := mem.LinesPerPage / a.p.Payload
	slot := int(seq) % slots
	prev := (proc + a.threads - 1) % a.threads
	readBase := uint64(advPipeBase+prev)*mem.LinesPerPage + uint64(slot*a.p.Payload)
	writeBase := uint64(advPipeBase+proc)*mem.LinesPerPage + uint64(slot*a.p.Payload)
	for k := 0; k < a.p.Payload; k++ {
		a.add(ck, sig.Line(readBase+uint64(k)), false)
	}
	for k := 0; k < a.p.Payload; k++ {
		a.add(ck, sig.Line(writeBase+uint64(k)), true)
	}
	for len(ck.Accesses) < a.p.Accesses {
		a.add(ck, a.privateLine(r, proc), r.Float64() < 0.3)
	}
}

// genConvoy: every chunk acquires one of a few locks — a read-modify-write
// of the lock line all cores contend on — then does private work. Commits
// serialize completely; the protocols must drain the convoy without
// starvation or livelock.
func (a *adv) genConvoy(r *rand.Rand, proc int, seq uint64, ck *chunk.Chunk) {
	lock := uint64(advConvoyBase)*mem.LinesPerPage + seq%uint64(a.p.Locks)
	a.add(ck, sig.Line(lock), true)
	// Read the queue head (read-mostly sharing on the same page).
	a.add(ck, sig.Line(uint64(advConvoyBase)*mem.LinesPerPage+uint64(a.p.Locks)), false)
	for len(ck.Accesses) < a.p.Accesses {
		a.add(ck, a.privateLine(r, proc), r.Float64() < 0.4)
	}
}

// genStorm: each core writes its own line (offset = core id) in Payload
// random pages of a region whose every page homes at one of StormDirs
// directory modules. Concurrent write sets are address-disjoint — zero data
// conflicts — yet every commit's write group converges on the same couple of
// directories: the case that serializes TCC and SEQ but not ScalableBulk
// (§2.1), pushed to its limit.
func (a *adv) genStorm(r *rand.Rand, proc int, ck *chunk.Chunk) {
	off := uint64(proc % mem.LinesPerPage)
	for k := 0; k < a.p.Payload; k++ {
		page := uint64(advStormBase + r.Intn(a.p.StormPages))
		a.add(ck, sig.Line(page*mem.LinesPerPage+off), true)
	}
	for len(ck.Accesses) < a.p.Accesses {
		a.add(ck, a.privateLine(r, proc), false)
	}
}

// genKV: the "millions of users" pattern — every access is a random key in a
// huge space with zipfian popularity and no spatial locality (each key maps
// to an unrelated line via a hash), read-mostly with a small write fraction.
// Hot-key writes collide across cores; the long tail streams through the
// caches and scatters directory groups machine-wide.
func (a *adv) genKV(r *rand.Rand, proc int, ck *chunk.Chunk) {
	z := rand.NewZipf(r, a.p.Skew, 1, uint64(a.p.Lines-1))
	for len(ck.Accesses) < a.p.Accesses {
		if r.Float64() < a.p.PrivateFrac {
			a.add(ck, a.privateLine(r, proc), r.Float64() < 0.5)
			continue
		}
		key := z.Uint64()
		slot := splitmix64(key) % uint64(a.p.Lines)
		line := sig.Line(uint64(advKVBase)*mem.LinesPerPage + slot)
		a.add(ck, line, r.Float64() < a.p.WriteFrac)
	}
}
