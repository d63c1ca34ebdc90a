// Package bitset provides the small dense bit vectors the protocols use for
// processor sets (inval_vec: sharers to invalidate) and directory-module sets
// (g_vec: group participants). They mirror the fixed-width hardware bit
// vectors carried inside protocol messages (Table 1 of the paper).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a growable bit vector. The zero value is an empty set.
type Set struct {
	w []uint64
}

// New returns a set pre-sized to hold n bits.
func New(n int) Set { return Set{w: make([]uint64, (n+63)/64)} }

// FromWords returns the set whose bit i is bit i%64 of w[i/64]. The set
// uses w as its storage and appends to it for a bit past len(w), so a w cut
// from a shared array needs its capacity capped at its length.
func FromWords(w []uint64) Set { return Set{w: w} }

// Words returns the set's storage words, bit i in word i/64. Trailing words
// may be zero. The slice aliases the set.
func (s *Set) Words() []uint64 { return s.w }

func (s *Set) grow(i int) {
	need := i/64 + 1
	for len(s.w) < need {
		s.w = append(s.w, 0)
	}
}

// Add inserts bit i.
func (s *Set) Add(i int) {
	s.grow(i)
	s.w[i/64] |= 1 << (i % 64)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	if i/64 < len(s.w) {
		s.w[i/64] &^= 1 << (i % 64)
	}
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	return i/64 < len(s.w) && s.w[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Or merges o into s (set union), as directory modules do when accumulating
// inval_vec fields along the g message chain.
func (s *Set) Or(o Set) {
	for i, w := range o.w {
		if w == 0 {
			continue
		}
		s.grow(i*64 + 63)
		s.w[i] |= w
	}
}

// OrExcept merges o into s, leaving out bit x (x < 0 leaves out nothing).
// A bit x already in s stays set. Directory modules use it to gather a
// line's sharers minus the committing processor, one word at a time.
func (s *Set) OrExcept(o Set, x int) {
	xi, xb := -1, uint64(0)
	if x >= 0 {
		xi, xb = x/64, 1<<(x%64)
	}
	for i, w := range o.w {
		if i == xi {
			w &^= xb
		}
		if w == 0 {
			continue
		}
		s.grow(i*64 + 63)
		s.w[i] |= w
	}
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// Clone returns an independent copy.
func (s *Set) Clone() Set {
	c := Set{w: make([]uint64, len(s.w))}
	copy(c.w, s.w)
	return c
}

// Next returns the lowest set bit ≥ i, or -1 if there is none. Walk a set
// in ascending order with
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / 64
	if wi >= len(s.w) {
		return -1
	}
	w := s.w[wi] &^ (1<<(i%64) - 1)
	for {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
		wi++
		if wi == len(s.w) {
			return -1
		}
		w = s.w[wi]
	}
}

// Members returns the set bits in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// FromMembers builds a set containing each listed bit.
func FromMembers(ms ...int) Set {
	var s Set
	for _, m := range ms {
		s.Add(m)
	}
	return s
}

// String renders the set as "{1,5,9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	b.WriteByte('}')
	return b.String()
}
