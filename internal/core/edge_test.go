package core

import (
	"context"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// Determinism: identical options must give byte-identical outcomes.
func TestDeterminism(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{
		Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R,
		Patterns: 1024, UseConstLACs: true, UseSASIMILACs: true,
		MaxLACsPerNode: 4,
	}
	r1, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Error != r2.Error || r1.Graph.NumAnds() != r2.Graph.NumAnds() ||
		r1.Stats.Applied != r2.Stats.Applied {
		t.Errorf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)",
			r1.Error, r1.Graph.NumAnds(), r1.Stats.Applied,
			r2.Error, r2.Graph.NumAnds(), r2.Stats.Applied)
	}
}

// Seeds change the sampled patterns but the bound must hold for each seed
// on its own patterns.
func TestSeedsIndependentlyBounded(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	for seed := int64(1); seed <= 3; seed++ {
		opt := Options{Flow: FlowDP, Metric: metric.MED, Threshold: R, Patterns: 512, Seed: seed}
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Error > R {
			t.Errorf("seed %d: error %v exceeds bound %v", seed, res.Error, R)
		}
	}
}

// A SASIMI-only configuration (no constant LACs) must work.
func TestSASIMIOnly(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{
		Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R,
		Patterns: 512, UseSASIMILACs: true, MaxLACsPerNode: 6,
	}
	res, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Error > R*R {
		t.Errorf("error %v over bound", res.Error)
	}
}

// A circuit with constant outputs must not confuse the metric state.
func TestConstantOutputCircuit(t *testing.T) {
	g := aig.New("constout")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(x, "y")
	g.AddPO(aig.False, "zero")
	g.AddPO(aig.True, "one")
	opt := Options{Flow: FlowConventional, Metric: metric.ER, Threshold: 1.0, Patterns: 256} // everything allowed
	res, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Check(); err != nil {
		t.Fatal(err)
	}
	// With ER ≤ 1.0 the single AND may be replaced; outputs stay 3.
	if res.Graph.NumPOs() != 3 {
		t.Errorf("PO count changed: %d", res.Graph.NumPOs())
	}
}

// A circuit that is all MFFC (single output chain): replacing the root
// empties the circuit in one step and the flow must stop cleanly.
func TestSingleChainCollapse(t *testing.T) {
	g := aig.New("chain")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	for i := 0; i < 10; i++ {
		x = g.And(x, a)
	}
	g.AddPO(x, "y")
	opt := Options{Flow: FlowDP, Metric: metric.ER, Threshold: 1.0, Patterns: 128}
	res, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumAnds() != 0 {
		t.Errorf("chain should collapse fully under ER ≤ 1: %d ands left", res.Graph.NumAnds())
	}
}

// Thresholds between the discrete achievable errors: the flow must stop
// at the last safe point, never overshoot.
func TestTightThresholdNoOvershoot(t *testing.T) {
	g := gen.Adder(8)
	for _, thr := range []float64{1e-6, 1e-3, 0.005} {
		opt := Options{Flow: FlowDPSA, Metric: metric.ER, Threshold: thr, Patterns: 2048}
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Error > thr {
			t.Errorf("thr=%v: error %v overshoots", thr, res.Error)
		}
	}
}
