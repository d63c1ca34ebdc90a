package chunk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// refFinalized is what the map-based reference finalization derives from an
// access list.
type refFinalized struct {
	rsig, wsig            sig.Sig
	readLines, writeLines []sig.Line
	dirs, writeDirs       []int
}

// refFinalize is the original map-based Finalize, kept as the oracle for
// the sort-and-merge implementation.
func refFinalize(accs []Access, home func(sig.Line) int) refFinalized {
	var f refFinalized
	written := make(map[sig.Line]bool, len(accs))
	read := make(map[sig.Line]bool, len(accs))
	for _, a := range accs {
		if a.Write {
			written[a.Line] = true
		} else {
			read[a.Line] = true
		}
	}
	dirSet := make(map[int]bool, 8)
	wDirSet := make(map[int]bool, 8)
	for l := range written {
		f.wsig.Insert(l)
		f.writeLines = append(f.writeLines, l)
		d := home(l)
		dirSet[d] = true
		wDirSet[d] = true
	}
	for l := range read {
		if written[l] {
			continue // write set subsumes
		}
		f.rsig.Insert(l)
		f.readLines = append(f.readLines, l)
		dirSet[home(l)] = true
	}
	sort.Slice(f.readLines, func(i, j int) bool { return f.readLines[i] < f.readLines[j] })
	sort.Slice(f.writeLines, func(i, j int) bool { return f.writeLines[i] < f.writeLines[j] })
	for d := range dirSet {
		f.dirs = append(f.dirs, d)
	}
	sort.Ints(f.dirs)
	for d := range wDirSet {
		f.writeDirs = append(f.writeDirs, d)
	}
	sort.Ints(f.writeDirs)
	return f
}

// refTrulyConflictsWith is the original map-based TrulyConflictsWith.
func refTrulyConflictsWith(c *Chunk, ws []sig.Line) bool {
	mine := make(map[sig.Line]bool, len(c.ReadLines)+len(c.WriteLines))
	for _, l := range c.ReadLines {
		mine[l] = true
	}
	for _, l := range c.WriteLines {
		mine[l] = true
	}
	for _, l := range ws {
		if mine[l] {
			return true
		}
	}
	return false
}

// randomAccesses draws an access list over a small line space so reads and
// writes of the same line, duplicates, read-then-write and write-then-read
// all occur; n may be 0 or 1.
func randomAccesses(r *rand.Rand, n int) []Access {
	space := 1 + r.Intn(4*n+1)
	accs := make([]Access, n)
	for i := range accs {
		accs[i] = Access{Line: sig.Line(r.Intn(space) * (1 + r.Intn(300))), Write: r.Intn(3) == 0}
	}
	return accs
}

func homeByPage(l sig.Line) int { return int(mem.PageOf(l)) % 13 }

func sameLines(a, b []sig.Line) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }
func sameInts(a, b []int) bool       { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

func TestFinalizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	fixed := [][]Access{
		nil,
		{},
		{{Line: 5}},
		{{Line: 5, Write: true}},
		{{Line: 5}, {Line: 5, Write: true}}, // read then write
		{{Line: 5, Write: true}, {Line: 5}}, // write then read
		{{Line: 9}, {Line: 9}, {Line: 9, Write: true}, {Line: 9, Write: true}},
		{{Line: 300, Write: true}, {Line: 7}, {Line: 300}, {Line: 1300}, {Line: 7}},
	}
	cases := fixed
	for i := 0; i < 2000; i++ {
		cases = append(cases, randomAccesses(r, r.Intn(40)))
	}
	for i, accs := range cases {
		want := refFinalize(accs, homeByPage)
		c := &Chunk{Accesses: accs}
		var calls []sig.Line
		home := func(l sig.Line) int { calls = append(calls, l); return homeByPage(l) }
		// Twice: the second pass is the re-finalization of a squashed chunk.
		for pass := 0; pass < 2; pass++ {
			calls = calls[:0]
			c.Finalize(home)
			if c.RSig != want.rsig || c.WSig != want.wsig ||
				!sameLines(c.ReadLines, want.readLines) || !sameLines(c.WriteLines, want.writeLines) ||
				!sameInts(c.Dirs, want.dirs) || !sameInts(c.WriteDirs, want.writeDirs) {
				t.Fatalf("case %d pass %d: %v\nR=%v W=%v dirs=%v wdirs=%v\nwant R=%v W=%v dirs=%v wdirs=%v",
					i, pass, accs, c.ReadLines, c.WriteLines, c.Dirs, c.WriteDirs,
					want.readLines, want.writeLines, want.dirs, want.writeDirs)
			}
			// home sees the first line of each run of lines on one page,
			// written lines first: the order in which a first-touch mapper
			// would have met each page line by line.
			if want := append(pageRunStarts(want.writeLines), pageRunStarts(want.readLines)...); !sameLines(calls, want) {
				t.Fatalf("case %d: home called for %v, want %v", i, calls, want)
			}
		}
	}
}

// pageRunStarts returns the first line of each run of lines on one page.
func pageRunStarts(lines []sig.Line) []sig.Line {
	var out []sig.Line
	for i, l := range lines {
		if i == 0 || mem.PageOf(l) != mem.PageOf(lines[i-1]) {
			out = append(out, l)
		}
	}
	return out
}

// TestRefinalizeKeepsSharedSlices: messages of an earlier attempt hold the
// line-set slices, so re-finalizing must leave what they see unchanged.
func TestRefinalizeKeepsSharedSlices(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		c := &Chunk{Accesses: randomAccesses(r, 1+r.Intn(40))}
		c.Finalize(homeByPage)
		held := [][]sig.Line{c.ReadLines, c.WriteLines}
		want := [][]sig.Line{slices.Clone(c.ReadLines), slices.Clone(c.WriteLines)}
		c.Finalize(homeByPage)
		for k := range held {
			if !sameLines(held[k], want[k]) {
				t.Fatalf("case %d: held slice changed from %v to %v", i, want[k], held[k])
			}
		}
	}
}

func TestTrulyConflictsWithMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		c := &Chunk{Accesses: randomAccesses(r, r.Intn(30))}
		if i%5 != 0 { // every fifth chunk stays unfinalized: empty line sets
			c.Finalize(homeByPage)
		}
		ws := make([]sig.Line, r.Intn(6))
		for k := range ws {
			ws[k] = sig.Line(r.Intn(200) * (1 + r.Intn(300)))
		}
		if r.Intn(2) == 0 && len(c.Accesses) > 0 {
			ws = append(ws, c.Accesses[r.Intn(len(c.Accesses))].Line)
		}
		if got, want := c.TrulyConflictsWith(ws), refTrulyConflictsWith(c, ws); got != want {
			t.Fatalf("case %d: TrulyConflictsWith(%v) = %v, want %v (R=%v W=%v)",
				i, ws, got, want, c.ReadLines, c.WriteLines)
		}
	}
}

func TestFinalizeAndConflictCheckDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := &Chunk{Accesses: randomAccesses(r, 40)}
	c.Finalize(homeByPage) // warm: sizes the reused slices
	if n := testing.AllocsPerRun(100, func() { c.Finalize(homeByPage) }); n != 0 {
		t.Errorf("warmed Finalize allocates %.1f times per call", n)
	}
	ws := []sig.Line{1, 2, 3, c.Accesses[0].Line}
	if n := testing.AllocsPerRun(100, func() { c.TrulyConflictsWith(ws) }); n != 0 {
		t.Errorf("TrulyConflictsWith allocates %.1f times per call", n)
	}
}

// TestSnapshotPerExecution: one snapshot serves every call until the next
// Finalize, and it never aliases the chunk's own (mutable) signatures.
func TestSnapshotPerExecution(t *testing.T) {
	c := &Chunk{Accesses: []Access{{Line: 5}, {Line: 700, Write: true}}}
	c.Finalize(homeByPage)
	s := c.Snapshot()
	if c.Snapshot() != s {
		t.Fatal("second Snapshot call of one execution took a new snapshot")
	}
	if s.R != c.RSig || s.W != c.WSig {
		t.Fatal("snapshot differs from the finalized signatures")
	}
	c.RSig.Clear() // re-execution rebuilds the signatures in place
	c.WSig.Clear()
	c.WSig.Insert(9999)
	if !s.R.Member(5) || !s.W.Member(700) || s.W.Member(9999) {
		t.Fatal("snapshot aliases the chunk's signatures")
	}
	c.Finalize(homeByPage)
	if c.Snapshot() == s {
		t.Fatal("a new execution reused the old snapshot")
	}
}
