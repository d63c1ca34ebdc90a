package sig

import (
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

// linesFrom decodes a byte string into a bounded list of line addresses, the
// shared input shape for the fuzz targets and quick properties.
func linesFrom(data []byte) []Line {
	var ls []Line
	for len(data) >= 8 && len(ls) < 256 {
		ls = append(ls, Line(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return ls
}

func sigPair(data []byte) (Sig, Sig, []Line, []Line) {
	ls := linesFrom(data)
	half := len(ls) / 2
	return FromLines(ls[:half]), FromLines(ls[half:]), ls[:half], ls[half:]
}

// checkAgainstRef asserts every optimized kernel is bit-equivalent to its
// reference implementation on the given pair, and that the Bloom-filter
// algebra holds. It is the single oracle shared by fuzzing and quick.Check.
func checkAgainstRef(t *testing.T, a, b Sig, aLines, bLines []Line) {
	t.Helper()
	if a.Empty() != RefEmpty(&a) {
		t.Fatalf("Empty disagrees with RefEmpty: %v vs %v (%s)", a.Empty(), RefEmpty(&a), a.Dump())
	}
	if got, ref := a.Overlaps(&b), RefOverlaps(&a, &b); got != ref {
		t.Fatalf("Overlaps disagrees with RefOverlaps: %v vs %v", got, ref)
	}
	if got, ref := a.Union(b), RefUnion(a, b); got != ref {
		t.Fatalf("Union disagrees with RefUnion")
	}

	// No false negatives: every inserted line is a member (both kernels).
	for _, l := range aLines {
		if !a.Member(l) || !RefMember(&a, l) {
			t.Fatalf("inserted line %#x not a member", uint64(l))
		}
	}

	// Overlaps is symmetric, and sets that share a line overlap (no false
	// negatives), under both kernels.
	if a.Overlaps(&b) != b.Overlaps(&a) || RefOverlaps(&a, &b) != RefOverlaps(&b, &a) {
		t.Fatalf("Overlaps not symmetric")
	}
	for _, l := range aLines {
		if slices.Contains(bLines, l) && (!a.Overlaps(&b) || !RefOverlaps(&a, &b)) {
			t.Fatalf("signatures sharing line %#x report disjoint", uint64(l))
		}
	}

	// Union is a superset of both operands: every line inserted into either
	// side is a member of the union, and unioning back changes nothing.
	u := a.Union(b)
	for _, l := range append(append([]Line(nil), aLines...), bLines...) {
		if !u.Member(l) {
			t.Fatalf("union missing line %#x", uint64(l))
		}
	}
	if u.Union(a) != u || u.Union(b) != u {
		t.Fatalf("Union not absorbing its operands")
	}

	// Clear implies Empty, under both kernels.
	c := a
	c.Clear()
	if !c.Empty() || !RefEmpty(&c) {
		t.Fatalf("cleared signature not empty")
	}

	// Non-empty signatures have occupancy; empty ones estimate zero lines.
	if len(aLines) > 0 && a.Empty() {
		t.Fatalf("signature with %d inserts reports Empty", len(aLines))
	}
	if len(aLines) == 0 && (!a.Empty() || a.PopCount() != 0) {
		t.Fatalf("zero-insert signature not empty")
	}
}

// FuzzSigMembership fuzzes single-signature invariants: inserted lines are
// always members, Clear implies Empty, and optimized kernels match reference.
func FuzzSigMembership(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 8*64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		ls := linesFrom(data)
		s := FromLines(ls)
		for _, l := range ls {
			if !s.Member(l) || !RefMember(&s, l) {
				t.Fatalf("false negative for line %#x", uint64(l))
			}
		}
		if s.Empty() != RefEmpty(&s) {
			t.Fatalf("Empty kernel disagreement: opt=%v ref=%v inserts=%d", s.Empty(), RefEmpty(&s), len(ls))
		}
		if len(ls) > 0 && s.Empty() {
			t.Fatalf("signature with %d inserts reports Empty", len(ls))
		}
		s.Clear()
		if !s.Empty() || s.PopCount() != 0 {
			t.Fatalf("Clear did not empty the signature")
		}
	})
}

// FuzzSigSetOps fuzzes two-signature set algebra and new-vs-reference kernel
// equivalence.
func FuzzSigSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	mixed := make([]byte, 8*32)
	for i := range mixed {
		mixed[i] = byte(i*i + 11)
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, aLines, bLines := sigPair(data)
		checkAgainstRef(t, a, b, aLines, bLines)
	})
}

// TestQuickSigProperties runs the same oracle under testing/quick's random
// generator, which explores a different input distribution than the fuzzer's
// corpus mutation.
func TestQuickSigProperties(t *testing.T) {
	prop := func(raw []byte) bool {
		a, b, aLines, bLines := sigPair(raw)
		checkAgainstRef(t, a, b, aLines, bLines)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemberKernelsAgree probes membership of arbitrary (not necessarily
// inserted) lines: the optimized and reference Member must agree everywhere,
// including on false-positive probes.
func TestQuickMemberKernelsAgree(t *testing.T) {
	prop := func(inserted []uint64, probes []uint64) bool {
		var s Sig
		for _, l := range inserted {
			s.Insert(Line(l))
		}
		for _, p := range probes {
			if s.Member(Line(p)) != RefMember(&s, Line(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSigOverlaps(b *testing.B) {
	a := FromLines([]Line{1, 513, 4097, 70000})
	c := FromLines([]Line{2, 514, 4098, 70001})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = a.Overlaps(&c)
	}
}

func BenchmarkSigOverlapsRef(b *testing.B) {
	a := FromLines([]Line{1, 513, 4097, 70000})
	c := FromLines([]Line{2, 514, 4098, 70001})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBool = RefOverlaps(&a, &c)
	}
}

func BenchmarkSigUnion(b *testing.B) {
	a := FromLines([]Line{1, 513, 4097, 70000})
	c := FromLines([]Line{2, 514, 4098, 70001})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = a.Union(c)
	}
}

func BenchmarkSigUnionRef(b *testing.B) {
	a := FromLines([]Line{1, 513, 4097, 70000})
	c := FromLines([]Line{2, 514, 4098, 70001})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSig = RefUnion(a, c)
	}
}

var (
	sinkBool bool
	sinkSig  Sig
)
