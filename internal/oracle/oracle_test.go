package oracle

import (
	"math"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// approximateOf builds a deliberately wrong variant of g by replacing one
// mid-topological AND node with constant false.
func approximateOf(t *testing.T, g *aig.Graph) *aig.Graph {
	t.Helper()
	c := g.Sweep()
	var ands []int32
	for _, v := range c.Topo() {
		if c.IsAnd(v) {
			ands = append(ands, v)
		}
	}
	if len(ands) == 0 {
		t.Fatal("test circuit has no AND nodes")
	}
	c.ReplaceWithLit(ands[len(ands)/2], aig.False)
	return c.Sweep()
}

// exhaustiveCompute is an independent reference: simulate both circuits
// over all patterns and feed the raw PO vectors to metric.Compute.
func exhaustiveCompute(t *testing.T, orig, approx *aig.Graph, kind metric.Kind, w metric.Weights) float64 {
	t.Helper()
	patterns := 1 << uint(orig.NumPIs())
	so := sim.Options{Patterns: patterns}
	se, sa := sim.New(orig, so), sim.New(approx, so)
	exact := make([]bitvec.Vec, orig.NumPOs())
	av := make([]bitvec.Vec, orig.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(se.Words())
		av[o] = bitvec.NewWords(sa.Words())
		se.POVal(o, exact[o])
		sa.POVal(o, av[o])
	}
	if kind.Numeric() && w == nil {
		w = metric.UnsignedWeights(orig.NumPOs())
	}
	return metric.Compute(kind, w, exact, av, patterns)
}

func TestExactMatchesMetricCompute(t *testing.T) {
	circuits := []*aig.Graph{
		gen.Adder(4),
		gen.MultU(3, 3),
		gen.Comparator(4),
		gen.Parity(6),
		Randomish(t),
	}
	kinds := []metric.Kind{metric.ER, metric.MED, metric.MSE, metric.MHD}
	for _, g := range circuits {
		approx := approximateOf(t, g)
		m, err := Exact(g, approx, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if m.Patterns != 1<<uint(g.NumPIs()) {
			t.Fatalf("%s: %d patterns, want 2^%d", g.Name, m.Patterns, g.NumPIs())
		}
		for _, k := range kinds {
			want := exhaustiveCompute(t, g, approx, k, nil)
			got := m.Get(k)
			if d := math.Abs(got - want); d > 1e-9+1e-9*math.Abs(want) {
				t.Errorf("%s %s: oracle %v, metric.Compute %v", g.Name, k, got, want)
			}
		}
	}
}

func Randomish(t *testing.T) *aig.Graph {
	t.Helper()
	g := gen.Random(7, 6, 3, 40)
	if g.NumAnds() == 0 {
		t.Fatal("gen.Random returned an empty circuit")
	}
	return g
}

func TestExactIdenticalCircuitsZero(t *testing.T) {
	g := gen.Adder(3)
	m, err := Exact(g, g.Sweep(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ER != 0 || m.MED != 0 || m.MSE != 0 || m.MHD != 0 || m.WCE != 0 {
		t.Fatalf("identical circuits have nonzero error: %+v", m)
	}
}

func TestExactWCEMatchesSAT(t *testing.T) {
	for _, g := range []*aig.Graph{gen.Adder(3), gen.MultU(3, 2), gen.Comparator(3)} {
		approx := approximateOf(t, g)
		m, err := Exact(g, approx, nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if !m.WCEOK {
			t.Fatalf("%s: WCE not computed for %d POs", g.Name, g.NumPOs())
		}
		sat, err := equiv.WorstCaseError(g, approx)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if sat != m.WCE {
			t.Errorf("%s: SAT WCE %d, exhaustive WCE %d", g.Name, sat, m.WCE)
		}
		if v := CrossCheckWCE(g, approx); v != nil {
			t.Errorf("%s: CrossCheckWCE: %v", g.Name, v)
		}
	}
}

func TestExactCustomWeights(t *testing.T) {
	g := gen.Adder(3)
	approx := approximateOf(t, g)
	w := metric.TwosComplementWeights(g.NumPOs())
	m, err := Exact(g, approx, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []metric.Kind{metric.MED, metric.MSE} {
		want := exhaustiveCompute(t, g, approx, k, w)
		if d := math.Abs(m.Get(k) - want); d > 1e-9+1e-9*math.Abs(want) {
			t.Errorf("%s with two's-complement weights: oracle %v, metric.Compute %v", k, m.Get(k), want)
		}
	}
}

func TestExactRejectsBadInputs(t *testing.T) {
	g := gen.Adder(3)
	if _, err := Exact(g, gen.Adder(4), nil); err == nil {
		t.Error("interface mismatch not rejected")
	}
	big := gen.Adder(12) // 24 PIs
	if _, err := Exact(big, big, nil); err == nil {
		t.Error("oversized circuit not rejected")
	}
	if _, err := Exact(g, g, metric.Weights{1}); err == nil {
		t.Error("short weight vector not rejected")
	}
}

func TestSampledErrorMatchesEngineReference(t *testing.T) {
	g := gen.Adder(4)
	approx := approximateOf(t, g)
	so := sim.Options{Patterns: 2048, Seed: 5}
	got, err := SampledError(g, approx, metric.MED, nil, so)
	if err != nil {
		t.Fatal(err)
	}
	// The sampled estimate of a 256-pattern universe drawn 2048 times
	// should be near the exact value (sanity, not a tight bound).
	m, err := Exact(g, approx, nil)
	if err != nil {
		t.Fatal(err)
	}
	rang := metric.MaxDeviation(metric.MED, metric.UnsignedWeights(g.NumPOs()), g.NumPOs())
	if d := math.Abs(got - m.MED); d > metric.HoeffdingDelta(rang, 2048, 1e-9) {
		t.Errorf("sampled %v vs exact %v: outside Hoeffding bound", got, m.MED)
	}
	// Identical circuits sample to exactly zero under any seed.
	zero, err := SampledError(g, g.Sweep(), metric.ER, nil, sim.Options{Patterns: 512, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Errorf("identical circuits sampled error %v, want 0", zero)
	}
}
