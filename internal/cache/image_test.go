package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"scalablebulk/internal/sig"
)

// table2 is the paper's two cache geometries (Table 2).
var table2 = []struct {
	name string
	cfg  Config
}{
	{"L1", Config{SizeBytes: 32 << 10, Assoc: 4}},
	{"L2", Config{SizeBytes: 512 << 10, Assoc: 8}},
}

// sameState reports whether two caches hold the same bits.
func sameState(a, b *Cache) bool {
	return slices.Equal(a.tags, b.tags) && slices.Equal(a.meta, b.meta) &&
		a.clock == b.clock && a.lines == b.lines
}

// TestPropertyImageRoundTrip: a cache warmed by clean fills and reads,
// snapshotted and restored into a fresh cache, holds the same bits, and the
// two caches answer any later trace of accesses, fills, invalidations and
// commits identically.
func TestPropertyImageRoundTrip(t *testing.T) {
	for _, g := range table2 {
		t.Run(g.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				c := New(g.cfg)
				span := 3 * len(c.tags) // lines: enough to evict
				for i := 0; i < 2*len(c.tags); i++ {
					l := sig.Line(r.Intn(span))
					if r.Intn(4) == 0 {
						c.Lookup(l, false)
					} else {
						c.Fill(l, false, false)
					}
				}
				im := c.Snapshot()
				if im == nil {
					t.Log("a clean warm-up trace did not encode")
					return false
				}
				d := New(g.cfg)
				d.Fill(7, true, true) // Restore overwrites whatever was there
				d.Restore(im)
				if !sameState(c, d) {
					t.Log("restored cache differs")
					return false
				}
				for i := 0; i < len(c.tags)/4; i++ {
					l := sig.Line(r.Intn(span))
					switch op := r.Intn(5); op {
					case 0:
						w := r.Intn(2) == 0
						if c.Lookup(l, w) != d.Lookup(l, w) {
							return false
						}
					case 1:
						dirty, spec := r.Intn(2) == 0, r.Intn(2) == 0
						v1, wb1, ev1 := c.Fill(l, dirty, spec)
						v2, wb2, ev2 := d.Fill(l, dirty, spec)
						if v1 != v2 || wb1 != wb2 || ev1 != ev2 {
							return false
						}
					case 2:
						if c.Invalidate(l) != d.Invalidate(l) {
							return false
						}
					case 3:
						c.CommitSpec(l)
						d.CommitSpec(l)
					case 4:
						if c.SquashSpec(l) != d.SquashSpec(l) {
							return false
						}
					}
				}
				return sameState(c, d)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestImageRestoreIsShared: restoring one image into two caches gives each
// its own copy.
func TestImageRestoreIsShared(t *testing.T) {
	c := New(table2[0].cfg)
	for l := sig.Line(0); l < 100; l++ {
		c.Fill(l, false, false)
	}
	im := c.Snapshot()
	a, b := New(table2[0].cfg), New(table2[0].cfg)
	a.Restore(im)
	a.Fill(5000, true, true)
	a.Invalidate(3)
	b.Restore(im)
	if !sameState(b, c) {
		t.Fatal("restoring after a sibling changed differs from the original")
	}
}

// TestImageSnapshotNil: states the encoding cannot hold exactly yield nil.
func TestImageSnapshotNil(t *testing.T) {
	l1 := table2[0].cfg
	for _, tc := range []struct {
		name string
		make func(c *Cache)
	}{
		{"invalidated-way", func(c *Cache) {
			c.Fill(1, false, false)
			c.Fill(2, false, false)
			c.Invalidate(2)
		}},
		{"invalidated-first-way", func(c *Cache) {
			c.Fill(1, false, false)
			c.Fill(1+256, false, false) // same set, next way
			c.Invalidate(1)
		}},
		{"dirty-way", func(c *Cache) { c.Fill(1, true, false) }},
		{"speculative-way", func(c *Cache) {
			c.Fill(1, false, false)
			c.Lookup(1, true)
		}},
		{"line-at-2^40", func(c *Cache) { c.Fill(1<<40, false, false) }},
		{"stamp-at-2^32", func(c *Cache) {
			c.clock = 1<<32 - 1
			c.Fill(1, false, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(l1)
			tc.make(c)
			if c.Snapshot() != nil {
				t.Fatal("snapshot of an unencodable cache is not nil")
			}
		})
	}
	// The bounds themselves still encode.
	c := New(l1)
	c.Fill(1<<40-1, false, false)
	c.clock = 1<<32 - 2
	c.Fill(2, false, false)
	if c.Snapshot() == nil {
		t.Fatal("a line below 2^40 and a stamp below 2^32 must encode")
	}
}

// TestImageGeometryMismatchPanics: an image only restores into a cache of
// its own geometry.
func TestImageGeometryMismatchPanics(t *testing.T) {
	im := New(table2[0].cfg).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("restoring an L1 image into an L2 did not panic")
		}
	}()
	New(table2[1].cfg).Restore(im)
}
