package gen

import (
	"testing"
)

func TestKoggeStoneExhaustive(t *testing.T) {
	g := KoggeStoneAdder(5)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 32; a++ {
		for b := uint64(0); b < 32; b++ {
			out := evalOne(t, g, map[string]uint64{"a": a, "b": b})
			if out["s"] != a+b {
				t.Fatalf("ks(%d,%d) = %d, want %d", a, b, out["s"], a+b)
			}
		}
	}
}

func TestKoggeStoneShallowerThanRipple(t *testing.T) {
	ks := KoggeStoneAdder(32)
	rc := Adder(32)
	if ks.Depth() >= rc.Depth() {
		t.Errorf("Kogge-Stone depth %d not shallower than ripple %d", ks.Depth(), rc.Depth())
	}
}

func TestWallaceExhaustive(t *testing.T) {
	g := WallaceMultiplier(5, 4)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 32; a++ {
		for b := uint64(0); b < 16; b++ {
			out := evalOne(t, g, map[string]uint64{"a": a, "b": b})
			if out["p"] != a*b {
				t.Fatalf("wallace(%d,%d) = %d, want %d", a, b, out["p"], a*b)
			}
		}
	}
}

func TestWallaceMatchesArrayRandom(t *testing.T) {
	wal := WallaceMultiplier(9, 9)
	arr := MultU(9, 9)
	r := rng(77)
	for i := 0; i < 300; i++ {
		a, b := r.bits(9), r.bits(9)
		ow := evalOne(t, wal, map[string]uint64{"a": a, "b": b})
		oa := evalOne(t, arr, map[string]uint64{"a": a, "b": b})
		if ow["p"] != oa["p"] {
			t.Fatalf("wallace(%d,%d)=%d but array=%d", a, b, ow["p"], oa["p"])
		}
	}
}
