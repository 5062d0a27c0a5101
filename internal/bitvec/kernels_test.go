package bitvec

import (
	"math/rand"
	"strings"
	"testing"
)

// biasedPatterns is a pattern count that is NOT a multiple of 64
// (1000 = 15 full words + 40 bits), so every kernel test below exercises
// the partially-filled final word where missing masking shows up.
const biasedPatterns = 1000

func randVec(rng *rand.Rand, words int) Vec {
	v := NewWords(words)
	for i := range v {
		v[i] = rng.Uint64()
	}
	return v
}

func TestMaskWord(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{1, 1},
		{40, (1 << 40) - 1},
		{63, (1 << 63) - 1},
		{64, ^uint64(0)},
		{128, ^uint64(0)},
		{biasedPatterns, (1 << (biasedPatterns % 64)) - 1},
	}
	for _, c := range cases {
		if got := MaskWord(c.n); got != c.want {
			t.Errorf("MaskWord(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
	// MaskWord(n) must agree with what Mask(n) leaves in the final word.
	for _, n := range []int{1, 40, 63, 64, 65, biasedPatterns} {
		v := NewWords(Words(n))
		v.SetAll()
		v.Mask(n)
		if got, want := v[len(v)-1], MaskWord(n); got != want {
			t.Errorf("Mask(%d) final word = %#x, MaskWord = %#x", n, got, want)
		}
	}
}

// TestAndMaybeNotDiffMatchesUnfused checks the fused resimulation step
// against the three-pass sequence it replaces: save the old value,
// AndMaybeNot + Mask, compare.
func TestAndMaybeNotDiffMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := Words(biasedPatterns)
	lastMask := MaskWord(biasedPatterns)
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, words), randVec(rng, words)
		for _, inv0 := range []uint64{0, ^uint64(0)} {
			for _, inv1 := range []uint64{0, ^uint64(0)} {
				// Reference: evaluate with the unfused ops.
				ta, tb := a.Clone(), b.Clone()
				if inv0 != 0 {
					ta.Not(ta)
				}
				if inv1 != 0 {
					tb.Not(tb)
				}
				want := NewWords(words)
				want.And(ta, tb)
				want.Mask(biasedPatterns)

				v := randVec(rng, words)
				v.Mask(biasedPatterns)
				old := v.Clone()
				diff := v.AndMaybeNotDiff(a, b, inv0, inv1, lastMask)
				if !v.Equal(want) {
					t.Fatalf("AndMaybeNotDiff(inv0=%#x inv1=%#x) wrong value", inv0, inv1)
				}
				if (diff != 0) != !old.Equal(want) {
					t.Fatalf("AndMaybeNotDiff change flag = %v, want %v",
						diff != 0, !old.Equal(want))
				}
			}
		}
	}
	// A second evaluation with identical inputs must report no change.
	a, b := randVec(rng, words), randVec(rng, words)
	v := NewWords(words)
	v.AndMaybeNotDiff(a, b, 0, ^uint64(0), lastMask)
	if d := v.AndMaybeNotDiff(a, b, 0, ^uint64(0), lastMask); d != 0 {
		t.Errorf("idempotent re-evaluation reported diff %#x", d)
	}
}

// TestNotSetAllBiasedMask is the regression net for the complement-mask
// audit: at a biased pattern count, Not and SetAll raise padding bits, and
// every counting path must see them cleared again after Mask.
func TestNotSetAllBiasedMask(t *testing.T) {
	words := Words(biasedPatterns)

	v := NewWords(words)
	v.SetAll()
	v.Mask(biasedPatterns)
	if got := v.Count(); got != biasedPatterns {
		t.Errorf("SetAll+Mask Count = %d, want %d", got, biasedPatterns)
	}

	rng := rand.New(rand.NewSource(3))
	a := randVec(rng, words)
	a.Mask(biasedPatterns)
	n := NewWords(words)
	n.Not(a)
	n.Mask(biasedPatterns)
	if got, want := n.Count(), biasedPatterns-a.Count(); got != want {
		t.Errorf("Not+Mask Count = %d, want %d", got, want)
	}
	// A masked vector and its masked complement partition the patterns.
	if a.Intersects(n) {
		t.Error("masked vector intersects its masked complement")
	}
	both := NewWords(words)
	both.Or(a, n)
	if got := both.Count(); got != biasedPatterns {
		t.Errorf("a ∪ ¬a Count = %d, want %d", got, biasedPatterns)
	}
}

// BenchmarkKernels is the microbench family behind the fused-kernel claim:
// the fused resimulation kernel is benchmarked next to the unfused
// multi-pass sequence it replaces, at 1024 patterns (16 words), the pattern count of bench/'s
// large-const and small-sasimi workloads. CI runs this family in the bench
// smoke and uploads the output as results/BENCH_kernels.txt;
// EXPERIMENTS.md records the methodology.
func BenchmarkKernels(b *testing.B) {
	const words = 16 // 1024 patterns
	rng := rand.New(rand.NewSource(1))
	a, bv := randVec(rng, words), randVec(rng, words)
	a.Mask(biasedPatterns)
	dst := NewWords(words)
	lastMask := MaskWord(biasedPatterns)
	sink := 0

	b.Run("AndMaybeNotDiff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += int(dst.AndMaybeNotDiff(a, bv, 0, ^uint64(0), lastMask))
		}
	})
	b.Run("AndMaybeNotDiff-unfused", func(b *testing.B) {
		// The three passes the fused kernel replaces: save, evaluate+mask,
		// compare. The save pass allocates nothing here (reused scratch) so
		// the delta is pure pass fusion.
		old := NewWords(words)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(old, dst)
			dst.AndMaybeNot(a, bv, ^uint64(0))
			dst.Mask(biasedPatterns)
			if !old.Equal(dst) {
				sink++
			}
		}
	})
	if sink == 42 {
		b.Log(sink) // defeat dead-code elimination
	}
}

// TestStringLogicalLength is the regression test for the String fix:
// String renders physical capacity, StringN renders the logical length
// without the padding bits.
func TestStringLogicalLength(t *testing.T) {
	v := New(70)
	v.Set(0, true)
	v.Set(69, true)
	// Padding garbage as a pooled/arena row would carry.
	v[1] |= 0xFFFF_FFFF_FFFF_0000

	s := v.StringN(70)
	if len(s) != 70 {
		t.Fatalf("StringN(70) rendered %d chars, want 70", len(s))
	}
	if s[0] != '1' || s[69] != '1' {
		t.Errorf("StringN lost live bits: %q", s)
	}
	if strings.Count(s, "1") != 2 {
		t.Errorf("StringN rendered padding garbage: %q", s)
	}

	// String (no logical length) renders all 128 physical bits, garbage
	// included — documented behaviour, asserted so a change is deliberate.
	if got := len(v.String()); got != 128 {
		t.Errorf("String rendered %d chars, want 128 (physical capacity)", got)
	}

	// Truncation marker and zero-fill past physical capacity.
	long := v.StringN(300)
	if !strings.HasSuffix(long, "…(+44 bits)") {
		t.Errorf("StringN(300) missing truncation marker: %q", long)
	}
	if long[200] != '0' {
		t.Error("bits past physical capacity must render as 0")
	}
}
