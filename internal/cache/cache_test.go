package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scalablebulk/internal/sig"
)

func small() *Cache { return New(Config{SizeBytes: 1024, Assoc: 2}) } // 32 lines, 16 sets

func TestLookupMissThenFillHit(t *testing.T) {
	c := small()
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(5, false, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after fill")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // assoc 2: lines l, l+16, l+32 map to the same set
	c.Fill(0, false, false)
	c.Fill(16, false, false)
	c.Lookup(0, false) // make 0 most recent
	v, _, ev := c.Fill(32, false, false)
	if !ev || v != 16 {
		t.Fatalf("evicted %d (ev=%v), want 16", v, ev)
	}
	if !c.Contains(0) || !c.Contains(32) || c.Contains(16) {
		t.Fatal("wrong survivor set")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := small()
	c.Fill(0, true, false)
	c.Fill(16, false, false)
	_, wb, ev := c.Fill(32, false, false)
	if !ev || !wb {
		t.Fatal("dirty victim not reported for writeback")
	}
}

func TestWriteMarksSpeculative(t *testing.T) {
	c := small()
	c.Fill(7, false, false)
	c.Lookup(7, true)
	if !c.IsDirty(7) {
		t.Fatal("write did not mark dirty")
	}
	if !c.SquashSpec(7) {
		t.Fatal("speculative line not squashable")
	}
	if c.Contains(7) {
		t.Fatal("squashed line still present")
	}
}

func TestCommitSpecMakesLineNonSpeculative(t *testing.T) {
	c := small()
	c.Fill(9, true, true)
	c.CommitSpec(9)
	if c.SquashSpec(9) {
		t.Fatal("committed line was squashed")
	}
	if !c.IsDirty(9) || !c.Contains(9) {
		t.Fatal("committed line lost dirtiness or presence")
	}
}

func TestSquashOnlySpeculative(t *testing.T) {
	c := small()
	c.Fill(3, true, false) // dirty but not speculative
	if c.SquashSpec(3) {
		t.Fatal("non-speculative line squashed")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(11, false, false)
	if !c.Invalidate(11) || c.Contains(11) {
		t.Fatal("invalidate failed")
	}
	if c.Invalidate(11) {
		t.Fatal("double invalidate reported presence")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	New(Config{SizeBytes: 96, Assoc: 1})
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(Config{SizeBytes: 1024, Assoc: 2}, Config{SizeBytes: 8192, Assoc: 4})
	if h.Access(42, false) != Miss {
		t.Fatal("expected Miss on cold access")
	}
	h.Fill(42, false)
	if h.Access(42, false) != L1Hit {
		t.Fatal("expected L1 hit after fill")
	}
	// Evict 42 from tiny L1 by filling its set, keeping L2 copy.
	for i := 0; i < 8; i++ {
		h.fillL1(sig.Line(42+32*(i+1)), false)
	}
	if h.Access(42, false) != L2Hit {
		t.Fatal("expected L2 hit after L1 eviction")
	}
	if h.Access(42, false) != L1Hit {
		t.Fatal("L2 hit must refill L1")
	}
}

func TestHierarchyWriteThrough(t *testing.T) {
	h := NewHierarchy(Config{SizeBytes: 1024, Assoc: 2}, Config{SizeBytes: 8192, Assoc: 4})
	h.Fill(5, false)
	h.Access(5, true) // L1 write hit must propagate dirty+spec to L2
	if !h.L2.IsDirty(5) {
		t.Fatal("write-through did not dirty L2")
	}
	h.Squash([]sig.Line{5})
	if h.L1.Contains(5) || h.L2.Contains(5) {
		t.Fatal("squash left speculative line")
	}
}

func TestHierarchyCommit(t *testing.T) {
	h := NewHierarchy(Config{SizeBytes: 1024, Assoc: 2}, Config{SizeBytes: 8192, Assoc: 4})
	h.Fill(6, true)
	h.Commit([]sig.Line{6})
	h.Squash([]sig.Line{6}) // no-op after commit
	if !h.L2.Contains(6) {
		t.Fatal("committed line lost")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	h := NewHierarchy(Config{SizeBytes: 1024, Assoc: 2}, Config{SizeBytes: 8192, Assoc: 4})
	h.Fill(8, false)
	if !h.Invalidate(8) {
		t.Fatal("invalidate missed present line")
	}
	if h.Access(8, false) != Miss {
		t.Fatal("line still cached after invalidate")
	}
}

func TestWritebackCounting(t *testing.T) {
	h := NewHierarchy(Config{SizeBytes: 1024, Assoc: 2}, Config{SizeBytes: 1024, Assoc: 2})
	// Fill L2 set 0 (lines 0, 16) dirty, then force eviction.
	h.Fill(0, true)
	h.Fill(16, true)
	h.Fill(32, true)
	if h.Writebacks == 0 {
		t.Fatal("dirty eviction not counted as writeback")
	}
}

// Property: the cache never exceeds capacity, and a line just filled is
// always present until something else in its set evicts it.
func TestPropertyCapacityAndPresence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 2048, Assoc: 4}) // 64 lines
		for i := 0; i < 500; i++ {
			l := sig.Line(rng.Intn(256))
			if !c.Lookup(l, rng.Intn(4) == 0) {
				c.Fill(l, false, false)
				if !c.Contains(l) {
					return false
				}
			}
			if c.Len() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU respects recency — in a fresh set, after touching k lines in
// order and inserting one more, the evicted line is the least recently used.
func TestPropertyLRUOrder(t *testing.T) {
	f := func(perm8 uint8) bool {
		c := New(Config{SizeBytes: 512, Assoc: 4}) // 4 sets, assoc 4
		// Same set: lines 0,4,8,12 (set count = 4).
		lines := []sig.Line{0, 4, 8, 12}
		for _, l := range lines {
			c.Fill(l, false, false)
		}
		first := lines[int(perm8)%4]
		// Touch all but `first`, so `first` is LRU.
		for _, l := range lines {
			if l != first {
				c.Lookup(l, false)
			}
		}
		v, _, ev := c.Fill(16, false, false)
		return ev && v == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
