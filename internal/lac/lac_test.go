package lac

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

func randomGraph(rng *rand.Rand, nPIs, nAnds, nPOs int) *aig.Graph {
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(8)].NotIf(rng.Intn(2) == 1), "")
	}
	return g.Sweep()
}

func TestDiffMask(t *testing.T) {
	g := aig.New("t")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(x, "x")
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 1})
	D := bitvec.NewWords(s.Words())

	// Const-0: D = val(x).
	LAC{Target: x.Var(), NewLit: aig.False}.DiffMask(s, D)
	if !D.Equal(s.Val(x.Var())) {
		t.Error("const-0 diff mask must equal the node value")
	}
	// Const-1: D = ¬val(x).
	LAC{Target: x.Var(), NewLit: aig.True}.DiffMask(s, D)
	want := bitvec.NewWords(s.Words())
	want.Not(s.Val(x.Var()))
	want.Mask(s.Patterns())
	if !D.Equal(want) {
		t.Error("const-1 diff mask must equal the complemented node value")
	}
	// Substitute by a: D = val(x) ⊕ val(a).
	LAC{Target: x.Var(), NewLit: a}.DiffMask(s, D)
	want.Xor(s.Val(x.Var()), s.Val(a.Var()))
	if !D.Equal(want) {
		t.Error("substitution diff mask wrong")
	}
	// Substitute by ¬a.
	LAC{Target: x.Var(), NewLit: a.Not()}.DiffMask(s, D)
	want.Not(want)
	want.Mask(s.Patterns())
	if !D.Equal(want) {
		t.Error("complemented substitution diff mask wrong")
	}
}

func TestConstCandidates(t *testing.T) {
	g := aig.New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	s := sim.New(g, sim.Options{Patterns: 64, Seed: 1})
	gen := NewGenerator(g, s, Options{Constants: true})
	cands := gen.CandidatesFor(y.Var())
	if len(cands) != 2 {
		t.Fatalf("want 2 constant candidates, got %d", len(cands))
	}
	for _, c := range cands {
		if !c.IsConst() {
			t.Errorf("candidate %v not constant", c)
		}
		if c.Gain != 2 { // y and x are y's MFFC
			t.Errorf("gain = %d, want 2", c.Gain)
		}
	}
}

func TestSASIMICandidatesAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 6, 60, 5)
		s := sim.New(g, sim.Options{Patterns: 512, Seed: int64(trial)})
		gen := NewGenerator(g, s, Options{SASIMI: true, MaxPerNode: 6})
		for _, v := range g.Topo() {
			if !g.IsAnd(v) {
				continue
			}
			for _, c := range gen.CandidatesFor(v) {
				if c.IsConst() {
					continue
				}
				if g.InTFO(v, c.NewLit.Var()) {
					t.Fatalf("trial %d: candidate %v for node %d is in its TFO", trial, c.NewLit, v)
				}
				if c.NewLit.Var() == v {
					t.Fatalf("self-substitution offered")
				}
			}
		}
	}
}

// Applying a SASIMI LAC must keep the graph valid and the estimated error
// must match the real error measured after application.
func TestEstimatedErrorMatchesRealAfterApply(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 7, 70, 6)
		patterns := 256
		orig := sim.New(g, sim.Options{Patterns: patterns, Seed: int64(trial)})
		exact := make([]bitvec.Vec, g.NumPOs())
		for o := range exact {
			exact[o] = bitvec.NewWords(orig.Words())
			orig.POVal(o, exact[o])
		}
		for _, kind := range []metric.Kind{metric.ER, metric.MSE, metric.MED} {
			gg := g.Clone()
			s := sim.New(gg, sim.Options{Patterns: patterns, Seed: int64(trial)})
			st := metric.NewState(kind, exact, metric.UnsignedWeights(gg.NumPOs()), s.Patterns())
			cuts, _ := cut.NewSet(context.Background(), gg, 1)
			res, _ := cpm.BuildDisjoint(context.Background(), gg, s, cuts, nil, 1)
			gen := NewGenerator(gg, s, Options{Constants: true, SASIMI: true, MaxPerNode: 4})

			var targets []int32
			for _, v := range gg.Topo() {
				if gg.IsAnd(v) {
					targets = append(targets, v)
				}
			}
			bests, _, _, _, _ := Evaluate(context.Background(), gen, res, st, targets, 2, nil)
			if len(bests) == 0 {
				continue
			}
			// Apply the best LAC of the median-ranked node and verify.
			nb := bests[len(bests)/2]
			cs := gg.ReplaceWithLit(nb.Best.Target, nb.Best.NewLit)
			if err := gg.Check(); err != nil {
				t.Fatalf("trial %d %v: %v", trial, kind, err)
			}
			s.ResimulateFrom(cs.Rewired)
			approx := make([]bitvec.Vec, gg.NumPOs())
			for o := range approx {
				approx[o] = bitvec.NewWords(s.Words())
				s.POVal(o, approx[o])
			}
			real := metric.Compute(kind, metric.UnsignedWeights(gg.NumPOs()), exact, approx, s.Patterns())
			if math.Abs(real-nb.Best.Err) > 1e-9*(1+math.Abs(real)) {
				t.Fatalf("trial %d %v: estimated %v, real %v", trial, kind, nb.Best.Err, real)
			}
		}
	}
}

func TestEvaluateTargetsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomGraph(rng, 6, 50, 4)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 7})
	exact := make([]bitvec.Vec, g.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(s.Words())
		s.POVal(o, exact[o])
	}
	st := metric.NewState(metric.MED, exact, metric.UnsignedWeights(g.NumPOs()), s.Patterns())
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	res, _ := cpm.BuildDisjoint(context.Background(), g, s, cuts, nil, 1)
	gen := NewGenerator(g, s, Options{Constants: true})
	var targets []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			targets = append(targets, v)
		}
	}
	bests, pwork, _, _, _ := Evaluate(context.Background(), gen, res, st, targets, 4, nil)
	for i := 1; i < len(bests); i++ {
		if bests[i-1].Best.Err > bests[i].Best.Err {
			t.Fatalf("results not sorted at %d: %v > %v", i, bests[i-1].Best.Err, bests[i].Best.Err)
		}
	}
	// Serial and parallel must agree, including the work estimate.
	serial, swork, _, _, _ := Evaluate(context.Background(), gen, res, st, targets, 1, nil)
	if len(serial) != len(bests) {
		t.Fatalf("serial/parallel length mismatch")
	}
	if swork != pwork || swork <= 0 {
		t.Fatalf("work estimate not scheduling-independent: serial %d, parallel %d", swork, pwork)
	}
	for i := range serial {
		if serial[i].Node != bests[i].Node || serial[i].Best.Err != bests[i].Best.Err {
			t.Fatalf("serial/parallel mismatch at %d", i)
		}
	}
}

// SASIMI ranking sorts with slices.SortFunc, which is not stable: on equal
// distances the order it leaves decides which substitutions survive the
// MaxPerNode cut. It must therefore order scoredCand (and Reindex's
// popcount index) exactly as the reflection-based sort.Slice did, which
// runs the same pattern-defeating quicksort; a Go release that changed
// either would change synthesis results.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	for it := 0; it < iters; it++ {
		n := rng.Intn(300)
		keys := rng.Intn(12) + 1 // few distinct keys: many ties
		cands := make([]scoredCand, n)
		for i := range cands {
			cands[i] = scoredCand{node: int32(i), compl: rng.Intn(2) == 0, dist: rng.Intn(keys)}
		}
		old := slices.Clone(cands)
		sort.Slice(old, func(a, b int) bool { return old[a].dist < old[b].dist })
		slices.SortFunc(cands, func(a, b scoredCand) int { return cmp.Compare(a.dist, b.dist) })
		if !slices.Equal(old, cands) {
			t.Fatalf("iteration %d (n=%d): scoredCand order differs from sort.Slice", it, n)
		}

		pops := make([]int, n)
		for i := range pops {
			pops[i] = rng.Intn(keys)
		}
		idxOld, idx := make([]int, n), make([]int, n)
		for i := range idx {
			idxOld[i], idx[i] = i, i
		}
		sort.Slice(idxOld, func(a, b int) bool { return pops[idxOld[a]] < pops[idxOld[b]] })
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(pops[a], pops[b]) })
		if !slices.Equal(idxOld, idx) {
			t.Fatalf("iteration %d (n=%d): popcount index order differs from sort.Slice", it, n)
		}
	}
}
