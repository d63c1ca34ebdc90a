package sig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyZeroValue(t *testing.T) {
	var s Sig
	if !s.Empty() {
		t.Fatal("zero-value signature is not empty")
	}
	if s.Member(42) {
		t.Fatal("empty signature claims membership")
	}
	if s.PopCount() != 0 {
		t.Fatal("empty signature has set bits")
	}
}

func TestInsertMember(t *testing.T) {
	var s Sig
	lines := []Line{0, 1, 2, 0xdeadbeef, 1 << 40, 12345}
	for _, l := range lines {
		s.Insert(l)
	}
	for _, l := range lines {
		if !s.Member(l) {
			t.Fatalf("line %#x inserted but not member (false negative)", l)
		}
	}
	if s.Empty() {
		t.Fatal("non-empty signature reports Empty")
	}
}

func TestClear(t *testing.T) {
	var s Sig
	s.Insert(7)
	s.Clear()
	if !s.Empty() || s.Member(7) {
		t.Fatal("Clear did not empty the signature")
	}
}

func TestIntersectionSoundness(t *testing.T) {
	// Sets with a common element must overlap (no false negatives).
	a := FromLines([]Line{10, 20, 30})
	b := FromLines([]Line{99, 30, 777})
	if !a.Overlaps(&b) || !RefOverlaps(&a, &b) {
		t.Fatal("signatures of intersecting sets report disjoint")
	}
	if !a.Member(30) || !b.Member(30) {
		t.Fatal("common element not a member of both")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := FromLines([]Line{1, 2, 3})
	b := FromLines([]Line{100, 200})
	u := a.Union(b)
	for _, l := range []Line{1, 2, 3, 100, 200} {
		if !u.Member(l) {
			t.Fatalf("union missing %d", l)
		}
	}
}

// clusteredSet emulates a realistic chunk footprint: a few runs of
// consecutive lines starting at random pages inside a region of the address
// space. Real chunk footprints are spatially clustered like this; the Bulk
// signature scheme is designed around that property.
func clusteredSet(rng *rand.Rand, region uint64, runs, runLen int) []Line {
	var out []Line
	for r := 0; r < runs; r++ {
		page := region + uint64(rng.Intn(1<<16))*128 // random page in region
		off := uint64(rng.Intn(128 - runLen))
		for i := 0; i < runLen; i++ {
			out = append(out, Line(page+off+uint64(i)))
		}
	}
	return out
}

func TestDisjointClusteredSetsUsuallyDisjoint(t *testing.T) {
	// Two chunks with clustered footprints in disjoint address regions must
	// almost never alias. Statistical, but deterministic with a fixed seed.
	rng := rand.New(rand.NewSource(1))
	falsePos := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		a := FromLines(clusteredSet(rng, 0, 8, 4))     // 32 lines, region A
		b := FromLines(clusteredSet(rng, 1<<40, 8, 4)) // 32 lines, region B
		if a.Overlaps(&b) {
			falsePos++
		}
	}
	if falsePos > trials/20 { // < 5%
		t.Fatalf("false positive rate too high: %d/%d", falsePos, trials)
	}
}

func TestSamePageDisjointLinesAreDisjoint(t *testing.T) {
	// Bank 0 indexes by exact line offset within 16 KB regions, so two
	// disjoint line sets inside the same page can never alias.
	a := FromLines([]Line{1000, 1001, 1002})
	b := FromLines([]Line{1010, 1011, 1012})
	if a.Overlaps(&b) {
		t.Fatal("disjoint same-page line sets alias")
	}
}

func TestStringAndDump(t *testing.T) {
	var s Sig
	s.Insert(5)
	if s.String() == "" || s.Dump() == "" {
		t.Fatal("empty string rendering")
	}
}

// Property: no false negatives — every inserted line is a member, and a
// signature overlaps any signature that shares a line with it.
func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(ls []uint64, extra []uint64, shared uint64) bool {
		if len(ls) > 256 {
			ls = ls[:256]
		}
		if len(extra) > 256 {
			extra = extra[:256]
		}
		var a, b Sig
		for _, l := range ls {
			a.Insert(Line(l))
		}
		for _, l := range extra {
			b.Insert(Line(l))
		}
		a.Insert(Line(shared))
		b.Insert(Line(shared))
		for _, l := range ls {
			if !a.Member(Line(l)) {
				return false
			}
		}
		return a.Overlaps(&b) && a.Member(Line(shared)) && b.Member(Line(shared))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is a superset encoder, overlap is symmetric and agrees
// with the reference kernel.
func TestPropertyAlgebra(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		var a, b Sig
		for _, x := range xs {
			a.Insert(Line(x))
		}
		for _, y := range ys {
			b.Insert(Line(y))
		}
		u := a.Union(b)
		for _, x := range xs {
			if !u.Member(Line(x)) {
				return false
			}
		}
		for _, y := range ys {
			if !u.Member(Line(y)) {
				return false
			}
		}
		return a.Overlaps(&b) == b.Overlaps(&a) && a.Overlaps(&b) == RefOverlaps(&a, &b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	var s Sig
	for i := 0; i < b.N; i++ {
		s.Insert(Line(i))
	}
}

func BenchmarkOverlaps(b *testing.B) {
	a := FromLines([]Line{1, 2, 3, 4, 5})
	c := FromLines([]Line{6, 7, 8, 9, 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Overlaps(&c)
	}
}
