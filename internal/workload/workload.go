// Package workload models the memory behavior of the paper's 18
// applications (11 SPLASH-2 + 7 PARSEC, §5) as parameterized chunk-footprint
// generators. We cannot ship the original binaries or the SESC simulator;
// instead each application is characterized by the properties that the
// commit protocols actually observe — footprint size and locality, how many
// directory modules a chunk touches (Figures 9–12), write dispersion
// (Radix's random bucket writes), read sharing, and true-conflict rates
// (§6.1) — and the generator synthesizes chunk streams with those
// properties. See DESIGN.md §2 and §3 for the substitution argument.
package workload

import (
	"math"

	"scalablebulk/internal/chunk"
	"scalablebulk/internal/mem"
	"scalablebulk/internal/msg"
	"scalablebulk/internal/rng"
	"scalablebulk/internal/sig"
)

// Profile characterizes one application's chunk behavior.
type Profile struct {
	Name  string
	Suite string // "SPLASH-2", "PARSEC", or "CHECK" (the model checker's)

	// ChunkInstr is the dynamic instruction count per chunk (Table 2: 2000).
	ChunkInstr int
	// Accesses is the number of line-granular memory touches per chunk.
	Accesses int
	// WriteFrac is the fraction of accesses that are writes.
	WriteFrac float64
	// SharedFrac is the fraction of access runs directed at the global
	// shared region (the rest hit the thread's private region).
	SharedFrac float64
	// RunLen is the spatial-locality run length: consecutive lines touched
	// per run. Low values (Canneal, Barnes) scatter accesses across pages
	// and directories.
	RunLen int
	// ScatterFrac is the fraction of writes sprayed one line at a time
	// across random shared pages — Radix's random bucket writes, which
	// give it write groups spanning most directories (§6.1/§6.2).
	ScatterFrac float64
	// SharedPagesPerChunk is how many distinct shared pages a chunk's
	// non-scatter shared runs cluster on; together with ScatterFrac it
	// controls the directories-accessed-per-commit of Figures 9–12.
	SharedPagesPerChunk int
	// TotalPrivatePages is the whole-problem private working set in pages;
	// each of T threads owns TotalPrivatePages/T of it. Large values make
	// single-processor runs thrash one L2 — the superlinear-speedup effect
	// for Ocean, Cholesky and Raytrace (§6.1).
	TotalPrivatePages int
	// SharedPages is the size of the global shared region.
	SharedPages int
	// PrivateSkew ≥ 1 skews private-page reuse toward a hot subset
	// (higher → better cache behavior).
	PrivateSkew float64
	// SharedSkew ≥ 1 skews which shared pages chunks work on: real
	// applications revisit hot shared structures (active matrix panels,
	// tree roots), which is what lets caches capture shared data. 1 means
	// uniform (Canneal's random netlist walks).
	SharedSkew float64
	// HotLines is the number of heavily contended shared lines.
	HotLines int
	// ConflictFrac is the per-chunk probability of writing a hot line —
	// the true-sharing squash generator (§6.1: ~1.5% of chunks squash on
	// data conflicts at 64 processors).
	ConflictFrac float64
	// ReadHotFrac is the per-run probability of reading the hot shared
	// area instead (read-mostly sharing: wide Read Groups in Figs 9/10).
	ReadHotFrac float64
}

// Page-layout constants: regions are placed far apart so footprints of
// different kinds can never collide accidentally.
const (
	sharedBasePage  = 1 << 20
	privateBasePage = 1 << 22
	privateStride   = 1 << 16 // pages reserved per thread

	// hotReadPages is the number of leading shared pages holding hot
	// read-mostly data; the contended hot write lines live on the page
	// right after, so read-hot traffic does not spuriously conflict.
	hotReadPages = 4
	hotWritePage = sharedBasePage + hotReadPages
	// dataPagesOffset is where the bulk shared data starts.
	dataPagesOffset = hotReadPages + 1
)

// Workload instantiates a profile for a machine size. It implements
// proc.Generator deterministically: chunk (p, seq) is a pure function of
// (profile, threads, seed, p, seq), so squashed chunks re-execute
// identically.
type Workload struct {
	Prof    Profile
	threads int
	seed    int64

	pagesPerThread int
}

// New builds a workload for the given thread count.
func New(prof Profile, threads int, seed int64) *Workload {
	ppt := prof.TotalPrivatePages / threads
	if ppt < 4 {
		ppt = 4
	}
	if ppt > privateStride/2 {
		ppt = privateStride / 2
	}
	return &Workload{Prof: prof, threads: threads, seed: seed, pagesPerThread: ppt}
}

// PagesPerThread returns each thread's private working set in pages.
func (w *Workload) PagesPerThread() int { return w.pagesPerThread }

// splitmix64 provides the per-chunk deterministic seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NextChunk implements proc.Generator.
func (w *Workload) NextChunk(proc int, seq uint64) *chunk.Chunk {
	return w.gen(proc, seq, false)
}

// WarmupChunk generates cache/page-table warm-up footprints. Warm-up
// differs from the measured phase in one respect: partitioned scatter
// regions (Radix's buckets) are touched unpartitioned, the way the
// application's initialization phase touches the whole array — so bucket
// pages get first-touch homes all over the machine instead of following the
// current write partition.
func (w *Workload) WarmupChunk(proc int, i int) *chunk.Chunk {
	return w.gen(proc, ^uint64(0)-uint64(i), true)
}

func (w *Workload) gen(proc int, seq uint64, warmup bool) *chunk.Chunk {
	// Chain the seed, processor and sequence number through separate
	// splitmix rounds: any bit of any of them changes the whole stream.
	h := splitmix64(uint64(w.seed))
	h = splitmix64(h ^ uint64(proc))
	h = splitmix64(h ^ seq)
	g := rng.Get(int64(h))
	defer rng.Put(g)
	r := g.Rand
	p := w.Prof

	ck := &chunk.Chunk{
		Tag:   msg.CTag{Proc: proc, Seq: seq},
		Instr: p.ChunkInstr,
		// The loop below stops at p.Accesses; the hot-line write adds at
		// most one more.
		Accesses: make([]chunk.Access, 0, max(p.Accesses, 0)+1),
	}
	privBase := uint64(privateBasePage + proc*privateStride)

	runLen := p.RunLen
	if runLen < 1 {
		runLen = 1
	}
	slots := mem.LinesPerPage / runLen

	// The chunk's shared runs cluster on a few pages — real chunks work on
	// a handful of shared structures at a time, which is what keeps the
	// average directories-per-commit in the paper's 2–6 range (§6.2).
	nShared := p.SharedPagesPerChunk
	if nShared < 1 {
		nShared = 1
	}
	sharedPool := make([]uint64, nShared)
	dataPages := max(p.SharedPages, 1)
	sharedSkew := p.SharedSkew
	if sharedSkew < 1 {
		sharedSkew = 1
	}
	pickShared := func() uint64 {
		u := math.Pow(r.Float64(), sharedSkew)
		return sharedBasePage + dataPagesOffset + uint64(u*float64(dataPages))
	}
	for i := range sharedPool {
		sharedPool[i] = pickShared()
	}

	for len(ck.Accesses) < p.Accesses {
		switch {
		case r.Float64() < p.ScatterFrac*p.WriteFrac:
			// Radix-style bucket write ("the writes to these buckets are
			// random ... no spatial locality", §6.1). Each thread owns a
			// page-partitioned slice of the bucket array — concurrent
			// write sets are address-disjoint — but the partition rotates
			// between sort passes, so the pages a thread writes are homed
			// all over the machine: chunks with disjoint addresses that
			// nevertheless share directory modules, exactly the case that
			// serializes TCC and SEQ but not ScalableBulk (§2.1).
			var page uint64
			if warmup {
				page = sharedBasePage + dataPagesOffset + uint64(r.Intn(dataPages))
			} else {
				epoch := seq >> 3
				residue := (uint64(proc) + epoch) % uint64(w.threads)
				// Stripe the partition across the region: the thread's
				// pages are spread machine-wide, touching many homes.
				idx := residue + uint64(r.Intn(max(dataPages/w.threads, 1)))*uint64(w.threads)
				page = sharedBasePage + dataPagesOffset + idx%uint64(dataPages)
			}
			off := r.Intn(mem.LinesPerPage)
			line := sig.Line(page*mem.LinesPerPage + uint64(off))
			ck.Accesses = append(ck.Accesses, chunk.Access{Line: line, Write: true})
		default:
			var page uint64
			write := true
			private := false
			switch {
			case r.Float64() < p.ReadHotFrac:
				// Hot read-mostly shared data: wide read groups.
				page = sharedBasePage + uint64(r.Intn(hotReadPages))
				write = false
			case r.Float64() < p.SharedFrac:
				page = sharedPool[r.Intn(nShared)]
			default:
				// Private page with skewed reuse: u^skew concentrates on a
				// hot subset, keeping it cache-resident.
				u := math.Pow(r.Float64(), p.PrivateSkew)
				page = privBase + uint64(u*float64(w.pagesPerThread))
				private = true
			}
			// Runs are slot-aligned. Private pages reuse hot slots (cache
			// residency); on shared pages different chunks work on
			// different slots, so concurrent writers of one structure
			// rarely touch the same lines (real conflicts stay rare, §6.1).
			var slot int
			if private {
				slot = int(math.Pow(r.Float64(), p.PrivateSkew) * float64(slots))
			} else {
				slot = r.Intn(slots)
			}
			if slot >= slots {
				slot = slots - 1
			}
			off := slot * runLen
			n := runLen
			if rem := p.Accesses - len(ck.Accesses); n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				line := sig.Line(page*mem.LinesPerPage + uint64(off+i))
				ck.Accesses = append(ck.Accesses, chunk.Access{
					Line:  line,
					Write: write && r.Float64() < p.WriteFrac,
				})
			}
		}
	}
	// True-sharing conflict: a write to one of the hot contended lines,
	// which live on their own page so they never collide with hot reads.
	if p.HotLines > 0 && r.Float64() < p.ConflictFrac {
		line := sig.Line(hotWritePage*mem.LinesPerPage + uint64(r.Intn(p.HotLines)))
		ck.Accesses = append(ck.Accesses, chunk.Access{Line: line, Write: true})
	}
	return ck
}
