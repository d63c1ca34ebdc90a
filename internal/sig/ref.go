package sig

// Reference kernels: the straightforward generic-loop implementations of the
// signature set operations, exactly as they were before the unrolled
// word-level kernels in sig.go replaced them on the hot path. They are kept
// (not test-only) for two jobs:
//
//   - the fuzz and property tests in this package assert the optimized
//     kernels are bit-equivalent to these for all inputs, and
//   - perfbench times both families (its sig.*_ns and sig.*_ref_ns
//     metrics) so the kernel speedup stays measured against its baseline.
//
// Protocol code must never call these.

// RefEmpty is the reference implementation of Sig.Empty.
func RefEmpty(s *Sig) bool {
	for b := 0; b < Banks; b++ {
		var or uint64
		for i := 0; i < bankWords; i++ {
			or |= s.w[b*bankWords+i]
		}
		if or == 0 {
			return true
		}
	}
	return false
}

// RefMember is the reference implementation of Sig.Member.
func RefMember(s *Sig, l Line) bool {
	for b := uint(0); b < Banks; b++ {
		bit := hash(l, b)
		idx := b*bankWords + uint(bit)/64
		if s.w[idx]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// RefIntersect is the reference implementation of Sig.Intersect.
func RefIntersect(s, o Sig) Sig {
	var r Sig
	for i := range s.w {
		r.w[i] = s.w[i] & o.w[i]
	}
	return r
}

// RefUnion is the reference implementation of Sig.Union.
func RefUnion(s, o Sig) Sig {
	var r Sig
	for i := range s.w {
		r.w[i] = s.w[i] | o.w[i]
	}
	return r
}

// RefOverlaps is the reference implementation of Sig.Overlaps.
func RefOverlaps(s, o *Sig) bool {
	for b := 0; b < Banks; b++ {
		var or uint64
		for i := 0; i < bankWords; i++ {
			or |= s.w[b*bankWords+i] & o.w[b*bankWords+i]
		}
		if or == 0 {
			return false
		}
	}
	return true
}

// RefBankOverlap is the reference implementation of Sig.BankOverlap.
func RefBankOverlap(s, o *Sig) [Banks]bool {
	var out [Banks]bool
	for b := 0; b < Banks; b++ {
		var or uint64
		for i := 0; i < bankWords; i++ {
			or |= s.w[b*bankWords+i] & o.w[b*bankWords+i]
		}
		out[b] = or != 0
	}
	return out
}
