package sim_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/oracle"
	"dpals/internal/sim"
)

// approximations returns circuits that real runs produce from g: a DP run
// under MED (small deviations) and one under ER (deviations anywhere,
// up to the most significant output).
func approximations(t *testing.T, g *aig.Graph) []*aig.Graph {
	t.Helper()
	var out []*aig.Graph
	for _, o := range []core.Options{
		{Metric: metric.MED, Threshold: metric.ReferenceError(g.NumPOs())},
		{Metric: metric.ER, Threshold: 0.05},
	} {
		o.Flow, o.Patterns, o.Seed, o.Threads, o.MaxIters = core.FlowDP, 512, 1, 1, 10
		res, err := core.Run(context.Background(), g, o, core.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Graph)
	}
	return out
}

// checkWorstCase compares the streamed worst case of approx against ref
// with the oracle's enumeration, and with SAT when withSAT is set, and
// checks the capped verdicts: a limit at the worst case holds and returns
// it exactly, one below fails, and a limit at or above 2^K changes
// nothing.
func checkWorstCase(t *testing.T, w *sim.WorstCase, ref, approx *aig.Graph, withSAT bool) {
	t.Helper()
	ctx := context.Background()
	ex, err := oracle.Exact(ref, approx, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.Max(ctx, approx, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if got != ex.WCE {
		t.Fatalf("streamed worst case %d, oracle %d", got, ex.WCE)
	}
	for _, limit := range []uint64{ex.WCE, 1 << uint(ref.NumPOs()), math.MaxUint64 - 1} {
		if m, _ := w.Max(ctx, approx, limit); m != ex.WCE {
			t.Fatalf("limit %d: %d, want the worst case %d", limit, m, ex.WCE)
		}
	}
	if ex.WCE > 0 {
		if m, _ := w.Max(ctx, approx, ex.WCE-1); m <= ex.WCE-1 || m > ex.WCE {
			t.Fatalf("limit %d below the worst case %d: returned %d", ex.WCE-1, ex.WCE, m)
		}
	}
	if withSAT {
		s, err := equiv.WorstCaseError(ref, approx)
		if err != nil {
			t.Fatal(err)
		}
		if s != got {
			t.Fatalf("streamed worst case %d, SAT %d", got, s)
		}
	}
}

// The streamed evaluator against two independent derivations of the same
// integer — the oracle's full enumeration and a SAT binary search — on
// every generator-suite circuit the oracle can enumerate (at most 20
// inputs), with approximations from real runs. One WorstCase serves every
// approximation of its reference, as in the engine, after measuring the
// reference itself (0, and a larger program than any approximation's).
func TestWorstCaseMatchesOracleOnGenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs and enumerates the generator suite")
	}
	for _, b := range gen.Suite(true) {
		g := b.Graph
		if g.NumPIs() > oracle.MaxPIs || g.NumPOs() > 62 {
			continue
		}
		t.Run(b.PaperName, func(t *testing.T) {
			w := sim.NewWorstCase(g)
			if m, err := w.Max(context.Background(), g, 0); err != nil || m != 0 {
				t.Fatalf("reference against itself: %d, %v", m, err)
			}
			// Multi-thousand-gate miters (sin, log2) cost minutes per SAT
			// search; the oracle covers them.
			for _, a := range approximations(t, g) {
				checkWorstCase(t, w, g, a, g.NumAnds() <= 2000)
			}
		})
	}
}

// Edge shapes of the word layout and of the fold: fewer than 6 inputs
// (one word, whose lanes beyond 2^PIs replay smaller inputs), exactly 6,
// a space of fewer words than one chunk, and one of several chunks.
func TestWorstCaseWordLayouts(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *aig.Graph
	}{
		{"adder2-4pi", gen.Adder(2)},
		{"multu3x2-5pi", gen.MultU(3, 2)},
		{"multu3x3-6pi", gen.MultU(3, 3)},
		{"multu4x4-8pi", gen.MultU(4, 4)},
		{"multu7x7-14pi", gen.MultU(7, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorstCase(tc.g)
			for _, a := range approximations(t, tc.g) {
				checkWorstCase(t, w, tc.g, a, tc.g.NumPIs() <= 8)
			}
		})
	}
}

// Hand-built output shapes: constant outputs of both polarities,
// complemented outputs, outputs wired straight to inputs, and a single
// output (K = 1), where every deviation is 0 or 1.
func TestWorstCaseOutputShapes(t *testing.T) {
	build := func(n int, outs func(g *aig.Graph, x []aig.Lit) []aig.Lit) *aig.Graph {
		g := aig.New("shape")
		x := make([]aig.Lit, n)
		for i := range x {
			x[i] = g.AddPI("")
		}
		for _, l := range outs(g, x) {
			g.AddPO(l, "")
		}
		return g
	}
	for _, tc := range []struct {
		name        string
		ref, approx *aig.Graph
	}{
		{"constants-vs-logic",
			build(3, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{aig.False, aig.False.Not(), g.And(x[0], x[1]).Not(), x[2]}
			}),
			build(3, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{g.Xor(x[0], x[2]), g.Or(x[1], x[2]).Not(), aig.False.Not(), aig.False}
			})},
		{"complemented-7pi",
			build(7, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{g.And(x[0], x[6]), g.Xor(x[1], x[5]).Not(), g.Maj(x[2], x[3], x[4])}
			}),
			build(7, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{x[0].Not(), g.And(x[1], x[5]), g.And(x[2], x[3]).Not()}
			})},
		{"k1",
			build(9, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{g.Xor(g.And(x[0], x[8]), g.Or(x[3], x[4]))}
			}),
			build(9, func(g *aig.Graph, x []aig.Lit) []aig.Lit {
				return []aig.Lit{g.And(x[0], x[8]).Not()}
			})},
		{"identical-constants",
			build(2, func(*aig.Graph, []aig.Lit) []aig.Lit { return []aig.Lit{aig.False.Not(), aig.False} }),
			build(2, func(*aig.Graph, []aig.Lit) []aig.Lit { return []aig.Lit{aig.False.Not(), aig.False} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkWorstCase(t, sim.NewWorstCase(tc.ref), tc.ref, tc.approx, true)
		})
	}
}

// Max checks its context between chunks: a done context returns the
// context's error, not a verdict.
func TestWorstCaseHonoursContext(t *testing.T) {
	g := gen.MultU(7, 7)
	w := sim.NewWorstCase(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Max(ctx, g, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Max returned %v, want context.Canceled", err)
	}
}

var sinkWCE uint64

// BenchmarkWorstCaseMAC4 is one certification-sized check on a 16-input
// circuit of 201 ANDs (the size of bench's mac4): the full 2^16 input space
// against the cached reference outputs.
func BenchmarkWorstCaseMAC4(b *testing.B) {
	ref := gen.MAC(4)
	approx := ref.Clone()
	for _, v := range approx.Topo() {
		if approx.IsAnd(v) {
			approx.ReplaceWithLit(v, aig.False) // one constant LAC
			break
		}
	}
	w := sim.NewWorstCase(ref)
	ctx := context.Background()
	b.ResetTimer()
	for range b.N {
		m, err := w.Max(ctx, approx, math.MaxUint64)
		if err != nil {
			b.Fatal(err)
		}
		sinkWCE = m
	}
}
