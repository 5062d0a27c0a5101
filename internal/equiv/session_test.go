package equiv

import (
	"context"
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/gen"
)

// randomConstLACs returns a copy of g with n random live AND nodes
// replaced by random constants.
func randomConstLACs(rng *rand.Rand, g *aig.Graph, n int) *aig.Graph {
	g = g.Clone()
	for i := 0; i < n; i++ {
		var ands []int32
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				ands = append(ands, v)
			}
		}
		if len(ands) == 0 {
			break
		}
		c := aig.False
		if rng.Intn(2) == 1 {
			c = c.Not()
		}
		g.ReplaceWithLit(ands[rng.Intn(len(ands))], c)
	}
	return g
}

// TestWCESessionMatchesWCEAtMost runs every threshold of [0, 2^K − 1]
// through one session, alternating thresholds below the worst case (SAT)
// and at or above it (UNSAT) in shuffled order so each call starts from
// the state the opposite verdict left. Every verdict must equal the
// single-shot WCEAtMost's, and every counterexample must really exceed
// its threshold.
func TestWCESessionMatchesWCEAtMost(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, orig := range []*aig.Graph{gen.MultU(3, 3), gen.Adder(4)} {
		for trial := 0; trial < 4; trial++ {
			approx := randomConstLACs(rng, orig, 1+rng.Intn(3))
			w, err := NewSession(orig, approx)
			if err != nil {
				t.Fatal(err)
			}
			single := make([]bool, maxDiff(orig)+1) // WCEAtMost's verdicts
			var below, above []uint64               // refuted and certified thresholds
			for thr := range single {
				ok, _, err := WCEAtMost(context.Background(), orig, approx, uint64(thr), 0)
				if err != nil {
					t.Fatal(err)
				}
				single[thr] = ok
				if ok {
					above = append(above, uint64(thr))
				} else {
					below = append(below, uint64(thr))
				}
			}
			rng.Shuffle(len(below), func(i, j int) { below[i], below[j] = below[j], below[i] })
			rng.Shuffle(len(above), func(i, j int) { above[i], above[j] = above[j], above[i] })
			var order []uint64
			for i := 0; i < max(len(below), len(above)); i++ {
				if i < len(below) {
					order = append(order, below[i])
				}
				if i < len(above) {
					order = append(order, above[i])
				}
			}
			for _, thr := range order {
				ok, cex, err := w.AtMost(context.Background(), thr, 0)
				if err != nil {
					t.Fatal(err)
				}
				if ok != single[thr] {
					t.Fatalf("%s trial %d: session says %v at t=%d, WCEAtMost %v", orig.Name, trial, ok, thr, single[thr])
				}
				if !ok {
					if d := absDiff(evalOutputs(orig, cex), evalOutputs(approx, cex)); d <= thr {
						t.Fatalf("%s trial %d: counterexample at t=%d deviates only %d", orig.Name, trial, thr, d)
					}
				}
			}
		}
	}
}

// evalOutputs evaluates g on one input assignment and returns the PO
// vector read as an unsigned LSB-first integer (≤ 63 POs).
func evalOutputs(g *aig.Graph, pi []bool) uint64 {
	vals := make([]bool, g.NumVars())
	for i, v := range g.PIs() {
		vals[v] = pi[i]
	}
	lit := func(l aig.Lit) bool {
		v := vals[l.Var()]
		if l.IsCompl() {
			return !v
		}
		return v
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		vals[v] = lit(f0) && lit(f1)
	}
	var out uint64
	for o, po := range g.POs() {
		if lit(po) {
			out |= 1 << uint(o)
		}
	}
	return out
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
