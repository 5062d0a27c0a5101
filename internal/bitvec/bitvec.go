// Package bitvec provides packed bit vectors used throughout the ALS engine
// for 64-way bit-parallel circuit simulation and for the change propagation
// matrix. A Vec of n bits is stored LSB-first in ⌈n/64⌉ uint64 words; bit i
// of the vector corresponds to Monte-Carlo input pattern i.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a packed bit vector. The bit count is carried by the caller:
// all vectors participating in an operation must have the same word length,
// and bits past the logical length must be kept zero by the producer of the
// vector (Mask enforces this).
type Vec []uint64

// Words returns the number of 64-bit words needed to hold n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a zeroed vector holding n bits.
func New(n int) Vec { return make(Vec, Words(n)) }

// NewWords returns a zeroed vector of w words.
func NewWords(w int) Vec { return make(Vec, w) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// CopyFrom copies src into v. The vectors must have equal length.
func (v Vec) CopyFrom(src Vec) { copy(v, src) }

// Get reports bit i.
func (v Vec) Get(i int) bool { return v[i>>6]>>(uint(i)&63)&1 != 0 }

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	if b {
		v[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// SetAll sets every word to all-ones. Call Mask afterwards if the logical
// bit count is not a multiple of 64.
func (v Vec) SetAll() {
	for i := range v {
		v[i] = ^uint64(0)
	}
}

// Clear zeroes the vector.
func (v Vec) Clear() {
	for i := range v {
		v[i] = 0
	}
}

// Mask clears the bits at positions ≥ n so that exactly the first n bits can
// be set. It must be called after SetAll or Not when n%64 != 0.
func (v Vec) Mask(n int) {
	if r := uint(n) & 63; r != 0 && len(v) > 0 {
		v[len(v)-1] &= (1 << r) - 1
	}
}

// And stores a∧b into v.
func (v Vec) And(a, b Vec) {
	for i := range v {
		v[i] = a[i] & b[i]
	}
}

// Or stores a∨b into v.
func (v Vec) Or(a, b Vec) {
	for i := range v {
		v[i] = a[i] | b[i]
	}
}

// OrWith ors a into v in place.
func (v Vec) OrWith(a Vec) {
	for i := range v {
		v[i] |= a[i]
	}
}

// Xor stores a⊕b into v.
func (v Vec) Xor(a, b Vec) {
	for i := range v {
		v[i] = a[i] ^ b[i]
	}
}

// XorWith xors a into v in place.
func (v Vec) XorWith(a Vec) {
	for i := range v {
		v[i] ^= a[i]
	}
}

// Not stores ¬a into v. Call Mask afterwards when the logical bit count is
// not a multiple of 64.
func (v Vec) Not(a Vec) {
	for i := range v {
		v[i] = ^a[i]
	}
}

// AndMaybeNot stores a ∧ (b ⊕ inv) into v, i.e. a∧b when inv is zero and
// a∧¬b when inv is all-ones. inv is a word-level complement mask used to
// apply AIG edge complements without branching.
func (v Vec) AndMaybeNot(a, b Vec, inv uint64) {
	for i := range v {
		v[i] = a[i] & (b[i] ^ inv)
	}
}

// Count returns the number of set bits.
func (v Vec) Count() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// XorCount returns popcount(a⊕b), the Hamming distance between a and b.
func XorCount(a, b Vec) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}

// IsZero reports whether no bit is set.
func (v Vec) IsZero() bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and a hold identical words.
func (v Vec) Equal(a Vec) bool {
	if len(v) != len(a) {
		return false
	}
	for i := range v {
		if v[i] != a[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether v∧a has any set bit.
func (v Vec) Intersects(a Vec) bool {
	for i := range v {
		if v[i]&a[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn with the index of every set bit, in increasing order.
func (v Vec) ForEach(fn func(i int)) {
	for wi, w := range v {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// String renders the vector's full physical capacity (len(v)*64 bits,
// truncated at 256) MSB-last for debugging. A Vec does not know its
// logical bit length, so padding bits past it — and stale garbage in
// pooled or arena rows — show up here; use StringN with the logical
// length to render only live bits.
func (v Vec) String() string { return v.StringN(len(v) << 6) }

// StringN renders the first min(n, 256) logical bits MSB-last for
// debugging, appending a "…(+k bits)" marker for whatever it truncates.
// Bits past the vector's physical capacity render as 0.
func (v Vec) StringN(n int) string {
	var sb strings.Builder
	shown := n
	if shown > 256 {
		shown = 256
	}
	for i := 0; i < shown; i++ {
		if i < len(v)<<6 && v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if n > shown {
		fmt.Fprintf(&sb, "…(+%d bits)", n-shown)
	}
	return sb.String()
}
