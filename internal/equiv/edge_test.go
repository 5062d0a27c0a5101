package equiv

import (
	"context"
	"testing"

	"dpals/internal/aig"
)

// mkGraph builds a graph whose POs are the literals build returns,
// exercising the WCE machinery on hand-crafted edge shapes.
func mkGraph(name string, pis int, build func(g *aig.Graph, in []aig.Lit) []aig.Lit) *aig.Graph {
	g := aig.New(name)
	in := make([]aig.Lit, pis)
	for i := range in {
		in[i] = g.AddPI("x" + string(rune('0'+i)))
	}
	for o, l := range build(g, in) {
		g.AddPO(l, "y"+string(rune('0'+o)))
	}
	return g
}

// TestWCEConstantOutputs: circuits whose outputs are constants stress the
// miter's subtractor with degenerate words.
func TestWCEConstantOutputs(t *testing.T) {
	// orig ≡ 0b11 (=3), approx ≡ 0b00 (=0): WCE is exactly 3.
	orig := mkGraph("const3", 1, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False.Not(), aig.False.Not()}
	})
	approx := mkGraph("const0", 1, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False, aig.False}
	})
	wce, err := WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if wce != 3 {
		t.Errorf("constant 3 vs constant 0: WCE %d, want 3", wce)
	}
	for t0 := uint64(0); t0 <= 4; t0++ {
		ok, cex, err := WCEAtMost(context.Background(), orig, approx, t0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := t0 >= 3; ok != want {
			t.Errorf("WCEAtMost(context.Background(), const3, const0, %d) = %v, want %v (cex %v)", t0, ok, want, cex)
		}
	}
}

// TestWCEComplementedOutputEdges: POs that read a node through a
// complemented edge must not confuse the miter's literal conversion.
func TestWCEComplementedOutputEdges(t *testing.T) {
	// orig: y0 = a∧b, y1 = ¬(a∧b); approx: both complemented.
	orig := mkGraph("pos", 2, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		n := g.And(in[0], in[1])
		return []aig.Lit{n, n.Not()}
	})
	approx := mkGraph("neg", 2, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		n := g.And(in[0], in[1])
		return []aig.Lit{n.Not(), n}
	})
	// orig value ∈ {2 (ab=0), 1 (ab=1)}; approx is the bit-swap: {1, 2}.
	// |diff| = 1 on every input.
	wce, err := WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if wce != 1 {
		t.Errorf("complemented-edge pair: WCE %d, want 1", wce)
	}
	// A circuit is WCE-0 against itself even with complemented PO edges.
	self, err := WorstCaseError(orig, orig.Sweep())
	if err != nil {
		t.Fatal(err)
	}
	if self != 0 {
		t.Errorf("self WCE %d, want 0", self)
	}
}

// TestWCESingleOutput: one-output circuits make |diff| ∈ {0,1} and the
// binary search range [0,1].
func TestWCESingleOutput(t *testing.T) {
	orig := mkGraph("and", 2, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{g.And(in[0], in[1])}
	})
	approx := mkGraph("zero", 2, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False}
	})
	wce, err := WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if wce != 1 {
		t.Errorf("AND vs 0: WCE %d, want 1", wce)
	}
	ok, _, err := WCEAtMost(context.Background(), orig, approx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("WCEAtMost(context.Background(), …, 0) certified a circuit with WCE 1")
	}
	// Equal single-output circuits certify at threshold 0.
	ok, _, err = WCEAtMost(context.Background(), orig, orig.Sweep(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("identical single-output circuits not certified at t=0")
	}
}

// TestWCEAtMostLargeThreshold is the regression test for the threshold
// truncation bug: the miter encodes t in a K-bit word (K = number of
// outputs), so t ≥ 2^K used to wrap around mod 2^K and report a spurious
// violation — e.g. K=2, t=4 compared against threshold 0. Any t at or
// above the maximum possible |diff| = 2^K − 1 must certify trivially.
func TestWCEAtMostLargeThreshold(t *testing.T) {
	orig := mkGraph("const3", 1, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False.Not(), aig.False.Not()}
	})
	approx := mkGraph("const0", 1, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False, aig.False}
	})
	for _, thr := range []uint64{3, 4, 5, 100, 1 << 40} {
		ok, cex, err := WCEAtMost(context.Background(), orig, approx, thr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("WCEAtMost(context.Background(), const3, const0, %d) = false (cex %v); |diff| can never exceed 3", thr, cex)
		}
	}
}

// TestWCEIdenticalConstantCircuits: both sides constant and equal — the
// miter must be unsatisfiable at every threshold including 0.
func TestWCEIdenticalConstantCircuits(t *testing.T) {
	c := mkGraph("const2", 1, func(g *aig.Graph, in []aig.Lit) []aig.Lit {
		return []aig.Lit{aig.False, aig.False.Not()}
	})
	wce, err := WorstCaseError(c, c.Sweep())
	if err != nil {
		t.Fatal(err)
	}
	if wce != 0 {
		t.Errorf("identical constant circuits: WCE %d, want 0", wce)
	}
}
