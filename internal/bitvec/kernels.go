package bitvec

// This file holds the fused word-loop kernel of incremental resimulation,
// which replaces a sequence of whole-vector passes with a single pass that
// never materialises the intermediate, and the final-word mask it takes.
// The kernel is exact: it computes the same words as the unfused sequence
// it replaces.

// MaskWord returns the final-word mask of an n-bit vector: all-ones when
// n is a multiple of 64, otherwise the low n%64 bits. ANDing the last word
// with it enforces the "bits past the logical length are zero" invariant
// without the separate Mask pass.
func MaskWord(n int) uint64 {
	if r := uint(n) & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// AndMaybeNotDiff stores (a ⊕ inv0) ∧ (b ⊕ inv1) into v — one AIG node
// evaluation with branch-free edge complements — masking the final word
// with lastMask, and returns the OR of all changed bits: zero iff v
// already held exactly that value. It fuses the three passes of an
// incremental resimulation step (save the old value, evaluate, compare)
// into one, with no scratch vector.
func (v Vec) AndMaybeNotDiff(a, b Vec, inv0, inv1, lastMask uint64) uint64 {
	var diff uint64
	last := len(v) - 1
	for i := 0; i < last; i++ {
		nw := (a[i] ^ inv0) & (b[i] ^ inv1)
		diff |= v[i] ^ nw
		v[i] = nw
	}
	if last >= 0 {
		nw := (a[last] ^ inv0) & (b[last] ^ inv1) & lastMask
		diff |= v[last] ^ nw
		v[last] = nw
	}
	return diff
}
