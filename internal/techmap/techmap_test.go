package techmap

import (
	"math"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/gen"
)

func TestEmptyAndWireCircuits(t *testing.T) {
	g := aig.New("wire")
	a := g.AddPI("a")
	g.AddPO(a, "y")
	m := Map(g)
	if m.Area != 0 || m.Delay != 0 {
		t.Errorf("wire circuit: %v", m)
	}
	g2 := aig.New("inv")
	b := g2.AddPI("a")
	g2.AddPO(b.Not(), "y")
	m2 := Map(g2)
	if m2.Cells["INV"] != 1 {
		t.Errorf("inverter circuit: %v", m2)
	}
}

func TestSingleAnd(t *testing.T) {
	g := aig.New("and")
	a, b := g.AddPI("a"), g.AddPI("b")
	g.AddPO(g.And(a, b), "y")
	m := Map(g)
	if m.Cells["AND2"] != 1 || m.Area != and2Area {
		t.Errorf("single AND: %v", m)
	}
	if m.Delay != and2Delay {
		t.Errorf("delay = %v, want %v", m.Delay, and2Delay)
	}
}

func TestXorDetection(t *testing.T) {
	g := aig.New("xor")
	a, b := g.AddPI("a"), g.AddPI("b")
	g.AddPO(g.Xor(a, b), "y")
	m := Map(g)
	if m.Cells["XOR2"] != 1 {
		t.Errorf("XOR not detected: %v", m)
	}
	if m.Cells["AND2"] != 0 {
		t.Errorf("XOR left stray ANDs: %v", m)
	}
}

func TestParityTreeAllXor(t *testing.T) {
	g := gen.Parity(8)
	m := Map(g)
	if m.Cells["XOR2"] != 7 {
		t.Errorf("parity(8) should map to 7 XOR2 cells: %v", m)
	}
	if m.Cells["AND2"] != 0 {
		t.Errorf("parity tree has stray AND cells: %v", m)
	}
	// ReduceXor builds a linear chain of 7 XORs; the PO may carry one
	// final inverter depending on the root literal's polarity.
	lo := 7 * xor2Delay
	hi := lo + invDelay
	if m.Delay < lo-1e-9 || m.Delay > hi+1e-9 {
		t.Errorf("parity(8) delay %v, want within [%v, %v]", m.Delay, lo, hi)
	}
}

func TestMuxDetection(t *testing.T) {
	g := aig.New("mux")
	s, a, b := g.AddPI("s"), g.AddPI("a"), g.AddPI("b")
	g.AddPO(g.Mux(s, a, b), "y")
	m := Map(g)
	if m.Cells["MUX2"] != 1 {
		t.Errorf("MUX not detected: %v", m)
	}
}

func TestSharedInnerNotAbsorbed(t *testing.T) {
	// If an inner node of an XOR shape has another fanout, absorption is
	// illegal and the mapper must fall back to AND cells.
	g := aig.New("shared")
	a, b := g.AddPI("a"), g.AddPI("b")
	u := g.And(a, b.Not())
	v := g.And(a.Not(), b)
	x := g.And(u.Not(), v.Not()) // ¬xor
	g.AddPO(x.Not(), "xor")
	g.AddPO(u, "side") // extra fanout on u
	m := Map(g)
	if m.Cells["XOR2"] != 0 {
		t.Errorf("illegal absorption: %v", m)
	}
	if m.Cells["AND2"] != 3 {
		t.Errorf("want 3 AND2 cells: %v", m)
	}
}

func TestSharedInverterCharging(t *testing.T) {
	// One node consumed complemented by two readers pays a single INV.
	g := aig.New("inv-share")
	a, b, c, d := g.AddPI("a"), g.AddPI("b"), g.AddPI("c"), g.AddPI("d")
	x := g.And(a, b)
	y := g.And(x.Not(), c)
	z := g.And(x.Not(), d)
	g.AddPO(y, "y")
	g.AddPO(z, "z")
	m := Map(g)
	if m.Cells["INV"] != 1 {
		t.Errorf("shared inverter not shared: %v", m)
	}
	if m.Cells["AND2"] != 3 {
		t.Errorf("want 3 AND2: %v", m)
	}
}

func TestADPRatioAndMonotonicity(t *testing.T) {
	big := gen.MultU(8, 8)
	small := gen.MultU(6, 6)
	mb := Map(big)
	ms := Map(small)
	if mb.Area <= ms.Area {
		t.Errorf("area not monotone with size: %v vs %v", mb.Area, ms.Area)
	}
	if r := ADPRatio(ms, mb); r <= 0 || r >= 1 {
		t.Errorf("ADP ratio %v out of (0,1)", r)
	}
	if r := ADPRatio(mb, mb); math.Abs(r-1) > 1e-12 {
		t.Errorf("self ADP ratio %v != 1", r)
	}
}

func TestChainDelay(t *testing.T) {
	g := aig.New("chain")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	for i := 0; i < 9; i++ {
		x = g.And(x, a)
	}
	g.AddPO(x, "y")
	m := Map(g)
	if math.Abs(m.Delay-10*and2Delay) > 1e-9 {
		t.Errorf("chain delay %v, want %v", m.Delay, 10*and2Delay)
	}
}

func TestSummarise(t *testing.T) {
	g := gen.Adder(8)
	r := Summarise(g)
	if r.Ands != g.NumAnds() || r.Area <= 0 || r.Delay <= 0 {
		t.Errorf("summary %+v", r)
	}
}
