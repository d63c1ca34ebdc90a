package cache

import (
	"math"
	"math/bits"
)

// Image is a compact, read-only copy of a clean cache: the state warm-up
// leaves behind, which every protocol of a figure sweep starts from. Warm-up
// only fills clean lines and never invalidates one, so each set's valid ways
// are a prefix of the set. The image stores a per-set count of them and one
// word per valid way: the line's bits above the set index in the high 32
// bits, its LRU stamp in the low 32.
type Image struct {
	assoc int
	count []uint8  // valid ways of each set
	ways  []uint64 // line>>setBits<<32 | stamp, set by set, way by way
	clock uint64
	lines int
}

// Snapshot encodes the cache as an Image, or returns nil when the encoding
// cannot hold it exactly: a set whose valid ways are not a prefix, an
// invalidated way (it keeps its line bits), a dirty or speculative way, or a
// line or stamp that needs more than 32 bits.
func (c *Cache) Snapshot() *Image {
	if c.assoc > math.MaxUint8 {
		return nil
	}
	nsets := len(c.tags) / c.assoc
	shift := bits.OnesCount64(c.mask)
	im := &Image{
		assoc: c.assoc,
		count: make([]uint8, nsets),
		ways:  make([]uint64, 0, c.lines),
		clock: c.clock, lines: c.lines,
	}
	for s := 0; s < nsets; s++ {
		base, n := s*c.assoc, 0
		for w := 0; w < c.assoc; w++ {
			t, m := c.tags[base+w], c.meta[base+w]
			if t&tagValid == 0 {
				if t != 0 || m != 0 {
					return nil // invalidated way
				}
				continue
			}
			hi := t >> 1 >> shift
			if w != n || m > math.MaxUint32 || hi > math.MaxUint32 {
				return nil // hole before this way, flags set, or too wide
			}
			im.ways = append(im.ways, hi<<32|m)
			n++
		}
		im.count[s] = uint8(n)
	}
	return im
}

// Restore overwrites the cache with im's contents. The cache must have the
// image's geometry. The image is only read, so one image may be restored
// into any number of caches, concurrently.
func (c *Cache) Restore(im *Image) {
	if len(im.count)*im.assoc != len(c.tags) || im.assoc != c.assoc {
		panic("cache: image geometry differs from the cache's")
	}
	shift := bits.OnesCount64(c.mask)
	k := 0
	for s, n := range im.count {
		base := s * c.assoc
		for w := 0; w < int(n); w++ {
			v := im.ways[k]
			k++
			c.tags[base+w] = (v>>32<<shift|uint64(s))<<1 | tagValid
			c.meta[base+w] = v & math.MaxUint32
		}
		clear(c.tags[base+int(n) : base+c.assoc])
		clear(c.meta[base+int(n) : base+c.assoc])
	}
	c.clock, c.lines = im.clock, im.lines
}
