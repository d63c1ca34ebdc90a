package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	var s Set
	if s.Has(3) || !s.Empty() {
		t.Fatal("zero value not empty")
	}
	s.Add(3)
	s.Add(200)
	if !s.Has(3) || !s.Has(200) || s.Has(4) {
		t.Fatal("membership wrong after Add")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	s.Remove(3)
	if s.Has(3) || !s.Has(200) {
		t.Fatal("Remove broke membership")
	}
	s.Remove(10000) // out of range: no-op
}

func TestOrAccumulatesInvalVec(t *testing.T) {
	a := FromMembers(1, 2)
	b := FromMembers(2, 65)
	a.Or(b)
	for _, i := range []int{1, 2, 65} {
		if !a.Has(i) {
			t.Fatalf("missing %d after Or", i)
		}
	}
	if a.Count() != 3 {
		t.Fatalf("Count = %d, want 3", a.Count())
	}
}

func TestMembersOrdered(t *testing.T) {
	s := FromMembers(70, 3, 9, 0)
	got := s.Members()
	want := []int{0, 3, 9, 70}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromMembers(5)
	b := a.Clone()
	b.Add(6)
	if a.Has(6) {
		t.Fatal("Clone shares storage")
	}
}

func TestClearString(t *testing.T) {
	s := FromMembers(1, 2)
	if s.String() != "{1,2}" {
		t.Fatalf("String = %q", s.String())
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left bits set")
	}
	if s.String() != "{}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestPropertyMembership(t *testing.T) {
	f := func(adds []uint16) bool {
		var s Set
		ref := map[int]bool{}
		for _, a := range adds {
			s.Add(int(a))
			ref[int(a)] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		for k := range ref {
			if !s.Has(k) {
				return false
			}
		}
		for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
			if !ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// orExceptRef is the per-bit formulation OrExcept replaces.
func orExceptRef(dst *Set, o Set, x int) {
	for i := o.Next(0); i >= 0; i = o.Next(i + 1) {
		if i != x {
			dst.Add(i)
		}
	}
}

func TestOrExceptMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	members := func(n, max int) []int {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = r.Intn(max)
		}
		return ms
	}
	for i := 0; i < 3000; i++ {
		o := FromMembers(members(r.Intn(8), 1+r.Intn(300))...)
		d0 := members(r.Intn(8), 1+r.Intn(300))
		var x int
		switch i % 5 {
		case 0:
			x = -1
		case 1:
			x = 64*len(o.w) + r.Intn(200) // past o's length
		case 2:
			if len(d0) == 0 {
				d0 = append(d0, 7)
			}
			x = d0[0] // already present in dst
			o.Add(x)
		case 3:
			if ms := o.Members(); len(ms) > 0 {
				x = ms[r.Intn(len(ms))] // present in o: must be left out
			}
		default:
			x = r.Intn(400)
		}
		got, want := FromMembers(d0...), FromMembers(d0...)
		got.OrExcept(o, x)
		orExceptRef(&want, o, x)
		if got.String() != want.String() {
			t.Fatalf("case %d: OrExcept(%s, %d) into %v = %s, want %s",
				i, o.String(), x, d0, got.String(), want.String())
		}
	}
}

// TestPropertyNext checks Next against Has: Next(i) is the lowest j ≥ i
// with Has(j), or -1 when no bit at or above i is set, including for i
// below zero and past the set's words.
func TestPropertyNext(t *testing.T) {
	f := func(adds []uint8, spread uint8) bool {
		var s Set
		max := 0
		for _, a := range adds {
			b := int(a) * (1 + int(spread%4))
			s.Add(b)
			if b > max {
				max = b
			}
		}
		for i := -2; i <= max+130; i++ {
			want := -1
			for j := i; j <= max; j++ {
				if j >= 0 && s.Has(j) {
					want = j
					break
				}
			}
			if got := s.Next(i); got != want {
				t.Logf("Next(%d) = %d, want %d in %s", i, got, want, s.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
