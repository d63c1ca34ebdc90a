package workload

// The per-application profiles below are calibrated against the paper's
// observations rather than against the original binaries (which we cannot
// run — see DESIGN.md §2):
//
//   - §6.2 / Figures 9–10: most applications access 2–6 directories per
//     chunk commit on average; Radix, Barnes, Canneal, and Blackscholes
//     access many more, and Radix's groups are almost all write groups.
//   - §6.1: Radix "implements a parallel radix sort that ranks integers and
//     writes them into separate buckets ... writes are random ... no
//     spatial locality", giving TCC/SEQ their largest commit overheads.
//   - §6.1: Ocean, Cholesky, and Raytrace attain superlinear speedups
//     because one processor's run can use only a single L2 cache — their
//     whole-problem working sets far exceed 512 KB.
//   - §6.1: data conflicts are rare (~1.5% of chunks squashed at 64
//     processors), so ConflictFrac values are small.
//
// The calibration test in calibrate_test.go checks the resulting
// directories-per-commit averages and footprint shapes.

func base() Profile {
	return Profile{
		ChunkInstr:          2000,
		Accesses:            96,
		WriteFrac:           0.3,
		SharedFrac:          0.3,
		RunLen:              8,
		TotalPrivatePages:   4096,
		SharedPages:         512,
		PrivateSkew:         3.2,
		HotLines:            32,
		ConflictFrac:        0.02,
		SharedPagesPerChunk: 2,
		SharedSkew:          1.15,
	}
}

func splash(name string, f func(*Profile)) Profile {
	p := base()
	p.Name, p.Suite = name, "SPLASH-2"
	f(&p)
	return p
}

func parsec(name string, f func(*Profile)) Profile {
	p := base()
	p.Name, p.Suite = name, "PARSEC"
	f(&p)
	return p
}

// Splash2 returns the 11 SPLASH-2 application models of §5 (LU and Ocean
// are the contiguous versions).
func Splash2() []Profile {
	return []Profile{
		splash("Radix", func(p *Profile) {
			// Random bucket writes, no spatial locality: write groups span
			// most directories (§6.1, §6.2).
			p.WriteFrac = 0.45
			p.ScatterFrac = 0.81
			p.SharedSkew = 1
			p.SharedFrac = 0.3
			p.SharedPages = 1024
			p.RunLen = 4
			p.SharedPagesPerChunk = 2
			p.ConflictFrac = 0.01
		}),
		splash("Cholesky", func(p *Profile) {
			// Sparse factorization: big working set → superlinear (§6.1).
			p.TotalPrivatePages = 24576
			p.SharedFrac = 0.25
			p.RunLen = 12
		}),
		splash("Barnes", func(p *Profile) {
			// Octree walks: poor locality, many directories per commit.
			p.SharedFrac = 0.55
			p.RunLen = 2
			p.SharedPages = 768
			p.SharedPagesPerChunk = 5
			p.ReadHotFrac = 0.08
			p.ConflictFrac = 0.04
		}),
		splash("FFT", func(p *Profile) {
			// Blocked transpose: strong spatial locality, few directories.
			p.SharedFrac = 0.25
			p.RunLen = 16
		}),
		splash("Water-N", func(p *Profile) {
			p.SharedFrac = 0.35
			p.RunLen = 6
			p.ConflictFrac = 0.03
		}),
		splash("FMM", func(p *Profile) {
			p.SharedFrac = 0.45
			p.RunLen = 4
			p.SharedPagesPerChunk = 4
			p.ReadHotFrac = 0.06
		}),
		splash("LU", func(p *Profile) {
			// Contiguous blocked LU: mostly private, excellent locality.
			p.SharedFrac = 0.12
			p.RunLen = 16
			p.SharedPagesPerChunk = 1
			p.WriteFrac = 0.35
		}),
		splash("Ocean", func(p *Profile) {
			// Contiguous grids: huge working set → superlinear (§6.1).
			p.TotalPrivatePages = 32768
			p.SharedFrac = 0.2
			p.RunLen = 16
		}),
		splash("Water-S", func(p *Profile) {
			p.SharedFrac = 0.25
			p.RunLen = 8
			p.ConflictFrac = 0.025
		}),
		splash("Radiosity", func(p *Profile) {
			p.SharedFrac = 0.45
			p.RunLen = 3
			p.SharedPagesPerChunk = 4
			p.ReadHotFrac = 0.1
			p.ConflictFrac = 0.04
		}),
		splash("Raytrace", func(p *Profile) {
			// Read-dominated scene traversal; big read-shared working set →
			// superlinear (§6.1).
			p.WriteFrac = 0.12
			p.SharedFrac = 0.45
			p.SharedPagesPerChunk = 3
			p.ReadHotFrac = 0.2
			p.TotalPrivatePages = 24576
			p.RunLen = 4
			p.ConflictFrac = 0.01
		}),
	}
}

// Parsec returns the 7 PARSEC application models of §5.
func Parsec() []Profile {
	return []Profile{
		parsec("Vips", func(p *Profile) {
			p.SharedFrac = 0.2
			p.RunLen = 12
		}),
		parsec("Swaptions", func(p *Profile) {
			// Near-embarrassingly parallel: tiny shared footprint.
			p.SharedFrac = 0.06
			p.RunLen = 12
			p.SharedPagesPerChunk = 1
			p.ConflictFrac = 0.005
		}),
		parsec("Blackscholes", func(p *Profile) {
			// Interleaved option records: chunks touch many directories
			// (Figure 10) despite the simple kernel.
			p.SharedFrac = 0.55
			p.RunLen = 2
			p.SharedPages = 1024
			p.SharedPagesPerChunk = 6
			p.WriteFrac = 0.35
			p.ConflictFrac = 0.01
		}),
		parsec("Fluidanimate", func(p *Profile) {
			p.SharedFrac = 0.3
			p.RunLen = 6
			p.SharedPagesPerChunk = 3
			p.ConflictFrac = 0.04
		}),
		parsec("Canneal", func(p *Profile) {
			// Random pointer chasing over a huge netlist: worst locality,
			// many directories, frequent conflicts (Figure 10, §6.1).
			p.SharedFrac = 0.65
			p.RunLen = 1
			p.SharedPages = 2048
			p.SharedPagesPerChunk = 8
			p.SharedSkew = 1
			p.PrivateSkew = 1.3
			p.TotalPrivatePages = 16384
			p.ConflictFrac = 0.05
			p.WriteFrac = 0.35
		}),
		parsec("Dedup", func(p *Profile) {
			p.SharedFrac = 0.35
			p.RunLen = 6
			p.SharedPagesPerChunk = 3
			p.ConflictFrac = 0.025
		}),
		parsec("Facesim", func(p *Profile) {
			p.SharedFrac = 0.3
			p.RunLen = 10
			p.TotalPrivatePages = 8192
		}),
	}
}

// checking returns the model checker's micro-workloads (suite CHECK): the
// differential suite's forced-conflict and conflict-free profiles scaled
// down until a 2-core run sends a few dozen protocol messages per chunk
// round — small enough to enumerate interleavings, rich enough to exercise
// occupation, invalidation, squash and retry paths. ByName finds them; All
// does not list them, so no figure sweep runs them.
func checking() []Profile {
	tiny := func(name string, shared float64, hot int, conflict float64) Profile {
		return Profile{
			Name: name, Suite: "CHECK",
			ChunkInstr: 200, Accesses: 4, WriteFrac: 0.5,
			SharedFrac: shared, ConflictFrac: conflict, HotLines: hot,
			RunLen: 2, SharedPagesPerChunk: 1,
			TotalPrivatePages: 8, SharedPages: 2,
			PrivateSkew: 2, SharedSkew: 1,
		}
	}
	return []Profile{
		// Every chunk writes the single hot shared line, so concurrent
		// chunks always conflict and commits must serialize: the
		// maximum-contention micro-workload and sbcheck's default.
		tiny("MCConflict", 0.5, 1, 1),
		// Every footprint is private to its thread: commits may overlap
		// freely, so any squash or serialization stall is protocol-induced.
		tiny("MCFree", 0, 0, 0),
	}
}

// All returns every application model, SPLASH-2 first (the paper's order).
func All() []Profile { return append(Splash2(), Parsec()...) }

// ByName finds an application model, or one of the model checker's
// micro-workloads; ok is false if the name is unknown.
func ByName(name string) (Profile, bool) {
	for _, p := range append(All(), checking()...) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
