// Package rng provides the simulator's seeded pseudo-random streams. Each
// is bit-identical to rand.New(rand.NewSource(seed)), but its source is
// seeded in O(1).
//
// math/rand's Seed runs 1,841 Lehmer steps to fill a 607-word state, yet a
// chunk generator seeds one stream per chunk and draws a few dozen numbers
// from it. Go 1 froze that seeded stream, so each state word is a closed
// form of the seed:
//
//	word i = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//	x(n)   = seed·48271^n mod (2³¹−1)
//
// The source keeps the powers 48271^n in a table and computes a word the
// first time a draw reads it. The additive lagged-Fibonacci generator reads
// its state in a fixed order, so a draw counter says which words are still
// unseeded; after 334 draws all 607 are.
package rng

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedDraws is the number of draws after which every state word has
	// been seeded. Draw k (from 0) reads feed word rngLen-rngTap-1-k and
	// tap word rngLen-1-k; the feed words cover 0..333, the tap words
	// 334..606 for k < rngTap and feed words already seeded after that.
	seedDraws = rngLen - rngTap
)

// powers[3i+j] is 48271^(21+3i+j) mod (2³¹−1), the multiplier of state
// word i's j-th Lehmer term.
var powers [3 * rngLen]uint32

func init() {
	x := uint64(1)
	for n := 1; n < 21+len(powers); n++ {
		x = x * 48271 % int32max
		if n >= 21 {
			powers[n-21] = uint32(x)
		}
	}
}

// source is a lazily seeded math/rand source. Its zero value must be
// seeded before use.
type source struct {
	tap, feed int
	draws     int    // draws since Seed, counted up to seedDraws
	seed      uint64 // normalized seed in [1, 2³¹−2]
	vec       [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

// New returns a *rand.Rand over a new lazily seeded source: the same
// stream as rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the source to the stream of math/rand.NewSource(seed). It
// normalizes the seed exactly as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.draws = 0
}

// word computes seeded state word i.
func (s *source) word(i int) int64 {
	p := powers[3*i : 3*i+3 : 3*i+3]
	x0 := s.seed * uint64(p[0]) % int32max
	x1 := s.seed * uint64(p[1]) % int32max
	x2 := s.seed * uint64(p[2]) % int32max
	return int64(x0<<40^x1<<20^x2) ^ rngCooked[i]
}

// seedNext seeds the state words the next draw reads for the first time.
func (s *source) seedNext() {
	k := s.draws
	s.draws++
	s.vec[seedDraws-1-k] = s.word(seedDraws - 1 - k)
	if k < rngTap {
		s.vec[rngLen-1-k] = s.word(rngLen - 1 - k)
	}
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *source) Uint64() uint64 {
	if s.draws < seedDraws {
		s.seedNext()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Rand is a pooled generator: a *rand.Rand over its own source.
type Rand struct {
	*rand.Rand
	src source
}

// pool recycles generators across chunks; a Session sweep runs several
// machines, and so several chunk generators, at once.
var pool = sync.Pool{New: func() any {
	r := new(Rand)
	r.Rand = rand.New(&r.src)
	return r
}}

// Get returns a pooled generator seeded with seed. Hand it back with Put
// once the stream is no longer needed.
func Get(seed int64) *Rand {
	r := pool.Get().(*Rand)
	r.Seed(seed)
	return r
}

// Put returns r to the pool; r must not be used afterwards.
func Put(r *Rand) { pool.Put(r) }
