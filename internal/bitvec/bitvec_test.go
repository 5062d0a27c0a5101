package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, c := range cases {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSetGet(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if got := v.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Error("bit 64 should be clear after Set(false)")
	}
}

func TestSetAllMask(t *testing.T) {
	v := New(70)
	v.SetAll()
	v.Mask(70)
	if got := v.Count(); got != 70 {
		t.Errorf("Count after SetAll+Mask(70) = %d, want 70", got)
	}
	if v.Get(70) || v.Get(127) {
		t.Error("bits past logical length must be zero")
	}
	// Mask with multiple of 64 must be a no-op.
	w := New(128)
	w.SetAll()
	w.Mask(128)
	if got := w.Count(); got != 128 {
		t.Errorf("Mask(128) clobbered bits: %d", got)
	}
}

func TestLogicOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(200), New(200)
	for i := 0; i < 200; i++ {
		a.Set(i, rng.Intn(2) == 1)
		b.Set(i, rng.Intn(2) == 1)
	}
	and, or, xor, not := New(200), New(200), New(200), New(200)
	and.And(a, b)
	or.Or(a, b)
	xor.Xor(a, b)
	not.Not(a)
	not.Mask(200)
	for i := 0; i < 200; i++ {
		ai, bi := a.Get(i), b.Get(i)
		if and.Get(i) != (ai && bi) {
			t.Fatalf("And bit %d wrong", i)
		}
		if or.Get(i) != (ai || bi) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if xor.Get(i) != (ai != bi) {
			t.Fatalf("Xor bit %d wrong", i)
		}
		if not.Get(i) != !ai {
			t.Fatalf("Not bit %d wrong", i)
		}
	}
	if got, want := XorCount(a, b), xor.Count(); got != want {
		t.Errorf("XorCount = %d, want %d", got, want)
	}
}

func TestAndMaybeNot(t *testing.T) {
	a := Vec{0b1100, 0}
	b := Vec{0b1010, 0}
	v := NewWords(2)
	v.AndMaybeNot(a, b, 0)
	if v[0] != 0b1000 {
		t.Errorf("AndMaybeNot(inv=0) = %b", v[0])
	}
	v.AndMaybeNot(a, b, ^uint64(0))
	if v[0] != 0b0100 {
		t.Errorf("AndMaybeNot(inv=~0) = %b", v[0])
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Vec{0b0011}
	b := Vec{0b0101}
	v := a.Clone()
	v.OrWith(b)
	if v[0] != 0b0111 {
		t.Errorf("OrWith = %b", v[0])
	}
	v = a.Clone()
	v.XorWith(b)
	if v[0] != 0b0110 {
		t.Errorf("XorWith = %b", v[0])
	}
}

func TestForEach(t *testing.T) {
	v := New(300)
	want := []int{0, 5, 63, 64, 100, 255, 299}
	for _, i := range want {
		v.Set(i, true)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestZeroEqualIntersect(t *testing.T) {
	a, b := New(128), New(128)
	if !a.IsZero() || !a.Equal(b) {
		t.Fatal("fresh vectors must be zero and equal")
	}
	a.Set(77, true)
	if a.IsZero() || a.Equal(b) || a.Intersects(b) {
		t.Fatal("after Set: IsZero/Equal/Intersects wrong")
	}
	b.Set(77, true)
	if !a.Intersects(b) || !a.Equal(b) {
		t.Fatal("overlapping vectors must intersect and be equal")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lengths must not compare equal")
	}
}

// Property: ForEach visits exactly the bits that Get reports, and Count
// agrees with the number of visits.
func TestQuickForEachMatchesGet(t *testing.T) {
	f := func(words []uint64) bool {
		if len(words) > 8 {
			words = words[:8]
		}
		v := Vec(words)
		seen := map[int]bool{}
		v.ForEach(func(i int) { seen[i] = true })
		if len(seen) != v.Count() {
			return false
		}
		for i := 0; i < len(v)<<6; i++ {
			if seen[i] != v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan holds on the word level: ¬(a∧b) == ¬a ∨ ¬b.
func TestQuickDeMorgan(t *testing.T) {
	f := func(aw, bw [4]uint64) bool {
		a, b := Vec(aw[:]), Vec(bw[:])
		lhs, na, nb, rhs := NewWords(4), NewWords(4), NewWords(4), NewWords(4)
		lhs.And(a, b)
		lhs.Not(lhs)
		na.Not(a)
		nb.Not(b)
		rhs.Or(na, nb)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnd1024Words(b *testing.B) {
	x, y, z := NewWords(1024), NewWords(1024), NewWords(1024)
	for i := range x {
		x[i] = uint64(i) * 0x9e3779b97f4a7c15
		y[i] = uint64(i) * 0xbf58476d1ce4e5b9
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.And(x, y)
	}
}

func BenchmarkCount1024Words(b *testing.B) {
	x := NewWords(1024)
	for i := range x {
		x[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}
