// Package cache models the private cache hierarchy of each tile: a
// write-through L1 and a write-back L2 (Table 2 of the paper: 32KB/4-way/32B
// L1 with 2-cycle round trip; 512KB/8-way/32B L2 with 8-cycle round trip).
//
// Because the machine executes chunks, writes are speculative until the
// chunk commits: written lines carry a speculative bit, are discarded on
// squash, and become ordinary dirty lines on commit (the commit itself never
// writes data back to memory — §2 of the paper).
package cache

import (
	"scalablebulk/internal/mem"
	"scalablebulk/internal/sig"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Assoc     int
}

// A set's ways are laid out as two parallel arrays so the tag scan of an
// 8-way set reads one 64-byte host cache line. A tag is line<<1 | tagValid;
// an invalidated way keeps its line bits, which Fill reports as the victim
// line. A meta word holds the way's LRU stamp with the dirty and
// speculative bits above it. Lines must be below 2⁶³ (any byte address
// divided by the line size is).
const (
	tagValid  = 1
	metaDirty = 1 << 63
	metaSpec  = 1 << 62
	metaLRU   = metaSpec - 1
)

// Cache is a set-associative, LRU, single-line-size cache model.
type Cache struct {
	tags  []uint64 // way w of set s at s*assoc+w
	meta  []uint64 // parallel to tags
	assoc int
	mask  uint64
	clock uint64
	lines int
}

// New builds a cache. SizeBytes/Assoc must yield a power-of-two set count.
func New(cfg Config) *Cache {
	lines := cfg.SizeBytes / mem.LineBytes
	nsets := lines / cfg.Assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &Cache{
		tags:  make([]uint64, nsets*cfg.Assoc),
		meta:  make([]uint64, nsets*cfg.Assoc),
		assoc: cfg.Assoc,
		mask:  uint64(nsets - 1),
	}
}

// set returns the index of the line's set's first way.
func (c *Cache) set(l sig.Line) int { return int(uint64(l)&c.mask) * c.assoc }

// find returns the index of the way holding l, or -1.
func (c *Cache) find(l sig.Line) int {
	base := c.set(l)
	want := uint64(l)<<1 | tagValid
	for i, t := range c.tags[base : base+c.assoc] {
		if t == want {
			return base + i
		}
	}
	return -1
}

// flags packs the dirty and speculative bits of a meta word.
func flags(dirty, spec bool) uint64 {
	var f uint64
	if dirty {
		f |= metaDirty
	}
	if spec {
		f |= metaSpec
	}
	return f
}

// Lookup reports whether the line is present, updating LRU state. If write
// is true and the line is present, it is marked dirty and speculative (chunk
// writes are speculative until commit).
func (c *Cache) Lookup(l sig.Line, write bool) bool {
	c.clock++
	if i := c.find(l); i >= 0 {
		c.meta[i] = c.meta[i]&^metaLRU | flags(write, write) | c.clock
		return true
	}
	return false
}

// Contains reports presence without perturbing LRU state.
func (c *Cache) Contains(l sig.Line) bool { return c.find(l) >= 0 }

// Fill inserts a line, evicting the LRU way if needed. It returns the
// victim line and whether the victim was dirty (needing writeback).
func (c *Cache) Fill(l sig.Line, dirty, spec bool) (victim sig.Line, victimDirty, evicted bool) {
	c.clock++
	if i := c.find(l); i >= 0 {
		c.meta[i] = c.meta[i]&^metaLRU | flags(dirty, spec) | c.clock
		return 0, false, false
	}
	base := c.set(l)
	tags := c.tags[base : base+c.assoc]
	meta := c.meta[base : base+c.assoc]
	vi := 0
	for i, t := range tags {
		if t&tagValid == 0 {
			vi = i
			break
		}
		if meta[i]&metaLRU < meta[vi]&metaLRU {
			vi = i
		}
	}
	victim, evicted = sig.Line(tags[vi]>>1), tags[vi]&tagValid != 0
	victimDirty = evicted && meta[vi]&metaDirty != 0
	if !evicted {
		c.lines++
	}
	tags[vi] = uint64(l)<<1 | tagValid
	meta[vi] = flags(dirty, spec) | c.clock
	return victim, victimDirty, evicted
}

// Invalidate drops a line; it reports whether the line was present.
func (c *Cache) Invalidate(l sig.Line) bool {
	if i := c.find(l); i >= 0 {
		c.tags[i] &^= tagValid
		c.lines--
		return true
	}
	return false
}

// CommitSpec turns the speculative bit of a written line into an ordinary
// dirty bit (chunk commit). Missing lines (already evicted) are fine.
func (c *Cache) CommitSpec(l sig.Line) {
	if i := c.find(l); i >= 0 && c.meta[i]&metaSpec != 0 {
		c.meta[i] = c.meta[i]&^metaSpec | metaDirty
	}
}

// SquashSpec invalidates a speculatively written line (chunk squash), so a
// restarted chunk refetches clean data. Reports whether it was present.
func (c *Cache) SquashSpec(l sig.Line) bool {
	if i := c.find(l); i >= 0 && c.meta[i]&metaSpec != 0 {
		c.tags[i] &^= tagValid
		c.lines--
		return true
	}
	return false
}

// IsDirty reports whether the line is present and dirty.
func (c *Cache) IsDirty(l sig.Line) bool {
	i := c.find(l)
	return i >= 0 && c.meta[i]&metaDirty != 0
}

// Len returns the number of valid lines.
func (c *Cache) Len() int { return c.lines }

// Level identifies where an access was satisfied.
type Level int

const (
	// L1Hit: satisfied by the L1 (2-cycle round trip, hidden by the core).
	L1Hit Level = iota
	// L2Hit: satisfied by the private L2 (8-cycle round trip).
	L2Hit
	// Miss: must go to the home directory over the network.
	Miss
)

// Hierarchy couples a tile's write-through L1 with its write-back L2.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// Writebacks counts dirty L2 evictions (would be memory traffic).
	Writebacks uint64
}

// NewHierarchy builds the Table 2 hierarchy.
func NewHierarchy(l1, l2 Config) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2)}
}

// Access performs a load or store lookup. On L2 hit the line is refilled
// into L1. On Miss the caller must fetch the line (through the directory)
// and then call Fill.
func (h *Hierarchy) Access(l sig.Line, write bool) Level {
	if h.L1.Lookup(l, write) {
		if write {
			// Write-through: the L2 copy is updated too.
			h.L2.Fill(l, true, true)
		}
		return L1Hit
	}
	if h.L2.Lookup(l, write) {
		h.fillL1(l, write)
		return L2Hit
	}
	return Miss
}

// Fill installs a line fetched from the network into both levels.
func (h *Hierarchy) Fill(l sig.Line, write bool) {
	if _, wb, ev := h.L2.Fill(l, write, write); ev && wb {
		h.Writebacks++
	}
	h.fillL1(l, write)
}

func (h *Hierarchy) fillL1(l sig.Line, write bool) {
	if v, _, ev := h.L1.Fill(l, write, write); ev {
		_ = v // write-through L1: no writeback on eviction
	}
}

// Invalidate drops a line from both levels (bulk invalidation hit).
// It reports whether any level held the line.
func (h *Hierarchy) Invalidate(l sig.Line) bool {
	a := h.L1.Invalidate(l)
	b := h.L2.Invalidate(l)
	return a || b
}

// Commit finalizes a committed chunk's written lines.
func (h *Hierarchy) Commit(lines []sig.Line) {
	for _, l := range lines {
		h.L1.CommitSpec(l)
		h.L2.CommitSpec(l)
	}
}

// Squash discards a squashed chunk's speculatively written lines.
func (h *Hierarchy) Squash(lines []sig.Line) {
	for _, l := range lines {
		h.L1.SquashSpec(l)
		h.L2.SquashSpec(l)
	}
}
