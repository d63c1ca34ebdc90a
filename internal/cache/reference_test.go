package cache

import (
	"math/rand"
	"testing"

	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// refCache is the array-of-structs cache the tag-packed Cache replaced,
// kept as the reference its every return value is compared against.
type refCache struct {
	sets  [][]refWay
	mask  uint64
	clock uint64
	lines int
}

type refWay struct {
	line  sig.Line
	valid bool
	dirty bool
	spec  bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	lines := cfg.SizeBytes / mem.LineBytes
	nsets := lines / cfg.Assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	sets := make([][]refWay, nsets)
	backing := make([]refWay, nsets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &refCache{sets: sets, mask: uint64(nsets - 1)}
}

func (c *refCache) set(l sig.Line) []refWay { return c.sets[uint64(l)&c.mask] }

func (c *refCache) find(l sig.Line) *refWay {
	s := c.set(l)
	for i := range s {
		if s[i].valid && s[i].line == l {
			return &s[i]
		}
	}
	return nil
}

func (c *refCache) Lookup(l sig.Line, write bool) bool {
	c.clock++
	if w := c.find(l); w != nil {
		w.lru = c.clock
		if write {
			w.dirty = true
			w.spec = true
		}
		return true
	}
	return false
}

func (c *refCache) Contains(l sig.Line) bool { return c.find(l) != nil }

func (c *refCache) Fill(l sig.Line, dirty, spec bool) (victim sig.Line, victimDirty, evicted bool) {
	c.clock++
	if w := c.find(l); w != nil {
		w.lru = c.clock
		w.dirty = w.dirty || dirty
		w.spec = w.spec || spec
		return 0, false, false
	}
	s := c.set(l)
	vi := 0
	for i := range s {
		if !s[i].valid {
			vi = i
			break
		}
		if s[i].lru < s[vi].lru {
			vi = i
		}
	}
	v := &s[vi]
	victim, victimDirty, evicted = v.line, v.dirty && v.valid, v.valid
	if !v.valid {
		c.lines++
	}
	*v = refWay{line: l, valid: true, dirty: dirty, spec: spec, lru: c.clock}
	return victim, victimDirty, evicted
}

func (c *refCache) Invalidate(l sig.Line) bool {
	if w := c.find(l); w != nil {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

func (c *refCache) CommitSpec(l sig.Line) {
	if w := c.find(l); w != nil && w.spec {
		w.spec = false
		w.dirty = true
	}
}

func (c *refCache) SquashSpec(l sig.Line) bool {
	if w := c.find(l); w != nil && w.spec {
		w.valid = false
		c.lines--
		return true
	}
	return false
}

func (c *refCache) IsDirty(l sig.Line) bool {
	w := c.find(l)
	return w != nil && w.dirty
}

func (c *refCache) Len() int { return c.lines }

// TestMatchesReference drives Cache and refCache with the same seeded
// random operation sequences and compares every return value. The 1-set
// and 2-way geometries keep the sets full, so most fills evict.
func TestMatchesReference(t *testing.T) {
	geoms := []struct {
		cfg   Config
		lines int // size of the line universe the ops draw from
	}{
		{Config{SizeBytes: 4 * mem.LineBytes, Assoc: 4}, 12},       // 1 set, 4 ways
		{Config{SizeBytes: 8 * mem.LineBytes, Assoc: 8}, 20},       // 1 set, 8 ways
		{Config{SizeBytes: 2 * mem.LineBytes, Assoc: 2}, 5},        // 1 set, 2 ways
		{Config{SizeBytes: 16 * mem.LineBytes, Assoc: 2}, 48},      // 8 sets, 2 ways
		{Config{SizeBytes: 1024, Assoc: 4}, 256},                   // 8 sets, 4 ways
		{Config{SizeBytes: 64 * mem.LineBytes, Assoc: 8}, 1 << 20}, // sparse: mostly misses
	}
	for gi, g := range geoms {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(gi)))
			c, ref := New(g.cfg), newRef(g.cfg)
			for op := 0; op < 4000; op++ {
				l := sig.Line(r.Intn(g.lines))
				if r.Intn(8) == 0 { // far lines sharing the same sets
					l += sig.Line(r.Intn(1<<20)) << 20
				}
				switch r.Intn(9) {
				case 0:
					w := r.Intn(2) == 0
					if got, want := c.Lookup(l, w), ref.Lookup(l, w); got != want {
						t.Fatalf("geom %d seed %d op %d: Lookup(%d,%v) = %v, want %v", gi, seed, op, l, w, got, want)
					}
				case 1, 2:
					d, s := r.Intn(2) == 0, r.Intn(3) == 0
					gv, gd, ge := c.Fill(l, d, s)
					wv, wd, we := ref.Fill(l, d, s)
					if gv != wv || gd != wd || ge != we {
						t.Fatalf("geom %d seed %d op %d: Fill(%d,%v,%v) = (%d,%v,%v), want (%d,%v,%v)",
							gi, seed, op, l, d, s, gv, gd, ge, wv, wd, we)
					}
				case 3:
					if got, want := c.Invalidate(l), ref.Invalidate(l); got != want {
						t.Fatalf("geom %d seed %d op %d: Invalidate(%d) = %v, want %v", gi, seed, op, l, got, want)
					}
				case 4:
					c.CommitSpec(l)
					ref.CommitSpec(l)
				case 5:
					if got, want := c.SquashSpec(l), ref.SquashSpec(l); got != want {
						t.Fatalf("geom %d seed %d op %d: SquashSpec(%d) = %v, want %v", gi, seed, op, l, got, want)
					}
				case 6:
					if got, want := c.IsDirty(l), ref.IsDirty(l); got != want {
						t.Fatalf("geom %d seed %d op %d: IsDirty(%d) = %v, want %v", gi, seed, op, l, got, want)
					}
				default:
					if got, want := c.Contains(l), ref.Contains(l); got != want {
						t.Fatalf("geom %d seed %d op %d: Contains(%d) = %v, want %v", gi, seed, op, l, got, want)
					}
				}
				if c.Len() != ref.Len() {
					t.Fatalf("geom %d seed %d op %d: Len = %d, want %d",
						gi, seed, op, c.Len(), ref.Len())
				}
			}
		}
	}
}

// BenchmarkFill measures warm-up style lookup-or-fill traffic into a
// Table 2 L2, on the packed layout and on the reference.
func BenchmarkFill(b *testing.B) {
	cfg := Config{SizeBytes: 512 << 10, Assoc: 8}
	r := rand.New(rand.NewSource(1))
	lines := make([]sig.Line, 4096)
	for i := range lines {
		lines[i] = sig.Line(r.Intn(1 << 16))
	}
	b.Run("packed", func(b *testing.B) {
		c := New(cfg)
		for i := 0; i < b.N; i++ {
			if l := lines[i%len(lines)]; !c.Lookup(l, false) {
				c.Fill(l, false, false)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		c := newRef(cfg)
		for i := 0; i < b.N; i++ {
			if l := lines[i%len(lines)]; !c.Lookup(l, false) {
				c.Fill(l, false, false)
			}
		}
	})
}
