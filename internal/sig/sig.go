// Package sig implements Bulk-style hardware address signatures.
//
// A signature is a fixed-size (2 Kbit by default, as in Table 2 of the
// paper) register that encodes a set of cache-line addresses with a
// partitioned Bloom filter, exactly as in "Bulk Disambiguation of Speculative
// Threads in Multiprocessors" (Ceze et al., ISCA 2006), which both BulkSC and
// ScalableBulk build on. The filter is split into Banks independent banks;
// inserting an address sets exactly one bit in every bank, each chosen by an
// independent hash of the line address.
//
// The two operations the protocols rely on are:
//
//   - membership (is line a possibly in the set?), used by directory modules
//     to nack loads that hit a committing chunk's write set, and
//   - intersection emptiness (do two sets possibly overlap?), used for chunk
//     disambiguation and group-compatibility checks.
//
// Both admit false positives (aliasing) but never false negatives, which is
// what makes them safe: at worst an operation is nacked or a chunk squashed
// unnecessarily (§3.1 of the paper).
package sig

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	// Bits is the signature size from Table 2 of the paper: 2 Kbit.
	Bits = 2048
	// Banks is the number of independent Bloom banks. Each inserted line
	// sets one bit per bank.
	Banks = 4
	// bankBits is the size of one bank in bits; must be a power of two.
	bankBits  = Bits / Banks
	bankWords = bankBits / 64
	words     = Bits / 64
)

// Line is a cache-line address (byte address >> line-offset bits).
type Line uint64

// Sig is a 2 Kbit address signature. The zero value is the empty signature.
// Sig is a value type: assignment copies it, and methods that combine
// signatures return new values, mirroring how the hardware moves whole
// signature registers between structures.
type Sig struct {
	w [words]uint64
}

// The four banks mirror Bulk's fixed bit-permutation networks, each viewing
// the line address through a different fixed permutation so the signature
// exploits the structure of real footprints:
//
//   - Bank 0 is a pure bit-slice of the line offset (address mod 512
//     lines). It discriminates footprints that interleave within shared
//     pages — per-thread bucket slices, different slots of a shared
//     structure — because different offsets map to different bits exactly.
//   - Banks 1–3 apply three independent fixed permutations (modeled as
//     multiplicative hashes) to the full page number. Footprints on
//     disjoint page sets — the common case in partitioned parallel code,
//     including regions laid out at large power-of-two strides — disagree
//     in these banks with high probability, and the three permutations are
//     independent so their false-positive rates multiply.
//
// Two chunks whose footprints are disjoint in *either* line offsets or page
// sets therefore test disjoint; only same-page random interleavings alias —
// the same physics as the hardware scheme.
var pageMuls = [3]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}

func hash(l Line, bank uint) uint32 {
	if bank == 0 {
		return uint32(uint64(l) & (bankBits - 1))
	}
	page := uint64(l) >> 7 // 4 KB pages of 128 lines
	x := page * pageMuls[bank-1]
	return uint32(x >> (64 - 9)) // top 9 bits: well-mixed page hash
}

// Insert adds a line address to the signature.
func (s *Sig) Insert(l Line) {
	for b := uint(0); b < Banks; b++ {
		bit := hash(l, b)
		idx := b*bankWords + uint(bit)/64
		s.w[idx] |= 1 << (bit % 64)
	}
}

// Member reports whether l may be in the set. False positives are possible;
// false negatives are not.
func (s *Sig) Member(l Line) bool {
	for b := uint(0); b < Banks; b++ {
		bit := hash(l, b)
		idx := b*bankWords + uint(bit)/64
		if s.w[idx]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// The set operations below are the simulator's hottest kernels after the
// event queue: every bulk invalidation runs Overlaps against up to three
// chunk signatures per core, and every commit clears and rebuilds two
// signatures. The boolean tests (Empty, Overlaps) are hand-unrolled over
// the fixed 8-word banks — no loop counters, no variable indexing, bounds
// checks gone — and short-circuit per bank; the whole-word combiner (Union)
// stays a range loop, which the compiler already turns into straight-line
// code. The pre-optimization loop versions live on as the Ref* kernels in
// ref.go; the fuzz and property tests in this package hold the two families
// bit-equivalent.

// Compile-time guard: the unrolled kernels assume exactly 8 words per bank.
var _ [bankWords - 8]struct{}
var _ [8 - bankWords]struct{}

// bankOr ORs the 8 words of the bank starting at word index i.
func bankOr(w *[words]uint64, i int) uint64 {
	return w[i] | w[i+1] | w[i+2] | w[i+3] | w[i+4] | w[i+5] | w[i+6] | w[i+7]
}

// bankAndOr ORs the pairwise AND of the 8-word banks starting at i.
func bankAndOr(a, b *[words]uint64, i int) uint64 {
	return a[i]&b[i] | a[i+1]&b[i+1] | a[i+2]&b[i+2] | a[i+3]&b[i+3] |
		a[i+4]&b[i+4] | a[i+5]&b[i+5] | a[i+6]&b[i+6] | a[i+7]&b[i+7]
}

// Empty reports whether the signature certainly encodes the empty set.
// Because every insertion sets one bit in every bank, a signature with any
// all-zero bank represents the empty set.
func (s *Sig) Empty() bool {
	w := &s.w
	return bankOr(w, 0) == 0 || bankOr(w, 8) == 0 ||
		bankOr(w, 16) == 0 || bankOr(w, 24) == 0
}

// Clear resets the signature to the empty set.
func (s *Sig) Clear() { *s = Sig{} }

// Union returns the bitwise union of two signatures; it encodes a superset
// of the union of the two sets.
func (s Sig) Union(o Sig) Sig {
	var r Sig
	for i := range s.w {
		r.w[i] = s.w[i] | o.w[i]
	}
	return r
}

// Overlaps reports whether the two signatures may encode intersecting sets.
// It is the hardware's fast compatibility test, equivalent to intersecting
// and testing emptiness, but without materializing the intersection.
func (s *Sig) Overlaps(o *Sig) bool {
	a, b := &s.w, &o.w
	return bankAndOr(a, b, 0) != 0 && bankAndOr(a, b, 8) != 0 &&
		bankAndOr(a, b, 16) != 0 && bankAndOr(a, b, 24) != 0
}

// PopCount returns the number of set bits, a measure of occupancy.
func (s Sig) PopCount() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders a short occupancy summary, e.g. "sig[57/2048]".
func (s Sig) String() string { return fmt.Sprintf("sig[%d/%d]", s.PopCount(), Bits) }

// Dump renders the raw banks in hex; used by trace tooling.
func (s Sig) Dump() string {
	var b strings.Builder
	for bank := 0; bank < Banks; bank++ {
		if bank > 0 {
			b.WriteByte('|')
		}
		for i := 0; i < bankWords; i++ {
			fmt.Fprintf(&b, "%016x", s.w[bank*bankWords+i])
		}
	}
	return b.String()
}

// FromLines builds a signature containing every line in ls.
func FromLines(ls []Line) Sig {
	var s Sig
	for _, l := range ls {
		s.Insert(l)
	}
	return s
}
