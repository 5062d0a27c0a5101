package lac

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// fullCPM builds the full disjoint-cut CPM of g with a fresh cpm.Cache.
func fullCPM(ctx context.Context, g *aig.Graph, s *sim.Sim) *cpm.Result {
	cuts, _ := cut.NewSet(ctx, g, 1)
	var ands []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			ands = append(ands, v)
		}
	}
	upd, _ := cpm.NewCache(g, s).Rows(ctx, cuts, ands, 1)
	return upd.Res
}

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
			res := fullCPM(context.Background(), gg, s)
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
	res := fullCPM(context.Background(), g, s)
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

// TestEvaluateMatchesSingleCandidateScores: scoring a target's candidates
// in one batch must pick exactly what scoring each candidate alone picks —
// node, LAC, error bits and candidate count — on the generated small suite
// with constant and SASIMI candidates, for every metric, at 1 and 2
// threads, with and without a memo. The charged work must stay the
// per-candidate cost Σ len(cl)·len(row.POs)·words.
func TestEvaluateMatchesSingleCandidateScores(t *testing.T) {
	suite := gen.SmallSuite(true)
	if testing.Short() {
		suite = suite[:4]
	}
	ctx := context.Background()
	for bi, b := range suite {
		g := b.Graph.Sweep()
		s := sim.New(g, sim.Options{Patterns: 1024, Seed: int64(bi + 1)})
		exact := make([]bitvec.Vec, g.NumPOs())
		for o := range exact {
			exact[o] = bitvec.NewWords(s.Words())
			s.POVal(o, exact[o])
		}
		// Apply a few constant LACs so the error state is nontrivial.
		rng := rand.New(rand.NewSource(int64(bi + 1)))
		for k := 0; k < 3; k++ {
			topo := g.Topo()
			v := topo[rng.Intn(len(topo))]
			if g.IsAnd(v) {
				s.ResimulateFrom(g.ReplaceWithLit(v, aig.False.NotIf(k%2 == 1)).Rewired)
			}
		}
		approx := make([]bitvec.Vec, g.NumPOs())
		for o := range approx {
			approx[o] = bitvec.NewWords(s.Words())
			s.POVal(o, approx[o])
		}
		weights := metric.Weights(b.Weights)
		if weights == nil {
			weights = metric.UnsignedWeights(g.NumPOs())
		}
		res := fullCPM(ctx, g, s)
		lg := NewGenerator(g, s, Options{Constants: true, SASIMI: true})
		var targets []int32
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				targets = append(targets, v)
			}
		}
		for _, kind := range []metric.Kind{metric.ER, metric.MSE, metric.MED, metric.MHD, metric.WCE} {
			st := metric.NewState(kind, exact, weights, s.Patterns())
			for o := range approx {
				st.CommitPO(o, approx[o])
			}
			want := map[int32]NodeBest{}
			var wantWork int64
			for _, v := range targets {
				if !res.Has(v) {
					continue
				}
				row := res.Row(v)
				cl := lg.CandidatesFor(v)
				nb := NodeBest{Node: v, N: len(cl), Best: Eval{Err: -1}}
				for _, c := range cl {
					var e [1]float64
					st.ScoreBatch(row.POs, row.Diffs, []metric.Operands{c.DiffOperands(s)}, e[:], make([]uint64, 1), nil)
					if nb.Best.Err < 0 || e[0] < nb.Best.Err || (e[0] == nb.Best.Err && c.Gain > nb.Best.Gain) {
						nb.Best = Eval{LAC: c, Err: e[0]}
					}
				}
				if nb.N > 0 {
					want[v] = nb
				}
				wantWork += int64(len(cl)) * int64(len(row.POs)) * int64(s.Words())
			}
			for _, threads := range []int{1, 2} {
				memo := NewMemo(g.NumVars())
				for pass, m := range []*Memo{nil, memo, memo} {
					got, work, _, hits, err := Evaluate(ctx, lg, res, st, targets, threads, m)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %v threads %d pass %d", b.PaperName, kind, threads, pass)
					if work != wantWork {
						t.Fatalf("%s: work %d, want %d", label, work, wantWork)
					}
					if pass == 2 && hits != len(want) {
						t.Fatalf("%s: %d memo hits, want %d", label, hits, len(want))
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d bests, want %d", label, len(got), len(want))
					}
					for _, nb := range got {
						w := want[nb.Node]
						if nb.Best.LAC != w.Best.LAC || math.Float64bits(nb.Best.Err) != math.Float64bits(w.Best.Err) || nb.N != w.N {
							t.Fatalf("%s: node %d best %+v (N %d), want %+v (N %d)", label, nb.Node, nb.Best, nb.N, w.Best, w.N)
						}
					}
				}
			}
		}
	}
}

// refIndex is the reference similarity index: the PIs and then the live
// ANDs in topological order, stable-sorted by sampled popcount.
func refIndex(g *aig.Graph, s *sim.Sim) (sigs []int32, pops []int) {
	sigs = slices.Clone(g.PIs())
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			sigs = append(sigs, v)
		}
	}
	sw := min(sampleWords, s.Words())
	pop := func(v int32) int { return samplePop(s.Val(v), sw) }
	slices.SortStableFunc(sigs, func(a, b int32) int { return cmp.Compare(pop(a), pop(b)) })
	for _, v := range sigs {
		pops = append(pops, pop(v))
	}
	return sigs, pops
}

// refCandidates is the reference SASIMI ranking of target v: every window
// candidate in scan order, stable-sorted by distance, deduplicated by node
// (first occurrence kept). The generator must emit its first MaxPerNode.
func refCandidates(g *aig.Graph, s *sim.Sim, sigs []int32, pops []int, v int32) []aig.Lit {
	r := slices.Index(sigs, v)
	if r < 0 {
		return nil
	}
	sw := min(sampleWords, s.Words())
	sampleBits := min(sw*64, s.Patterns())
	var cands []scoredCand
	consider := func(i int) {
		if i < 0 || i >= len(sigs) || g.IsDead(sigs[i]) || g.InTFO(v, sigs[i]) {
			return
		}
		u := sigs[i]
		d := 0
		for w := 0; w < sw; w++ {
			d += bits.OnesCount64(s.Val(v)[w] ^ s.Val(u)[w])
		}
		if d <= sampleBits-d {
			cands = append(cands, scoredCand{u, false, d})
		} else {
			cands = append(cands, scoredCand{u, true, sampleBits - d})
		}
	}
	for off := 1; off <= windowSize; off++ {
		consider(r - off)
		consider(r + off)
	}
	ci := sort.SearchInts(pops, sampleBits-pops[r])
	for off := 0; off <= windowSize; off++ {
		consider(ci - off - 1)
		consider(ci + off)
	}
	slices.SortStableFunc(cands, func(a, b scoredCand) int { return cmp.Compare(a.dist, b.dist) })
	var lits []aig.Lit
	for _, c := range cands {
		if !slices.ContainsFunc(lits, func(l aig.Lit) bool { return l.Var() == c.node }) {
			lits = append(lits, aig.MakeLit(c.node, c.compl))
		}
	}
	return lits
}

// checkSASIMIOrder requires the generator's index to equal refIndex (with
// rank its inverse) and CandidatesFor to equal the prefix of
// refCandidates, for every AND at several MaxPerNode bounds.
func checkSASIMIOrder(t *testing.T, label string, g *aig.Graph, s *sim.Sim, lg *Generator) {
	t.Helper()
	sigs, pops := refIndex(g, s)
	if !slices.Equal(lg.signals, sigs) || !slices.Equal(lg.pops, pops) {
		t.Fatalf("%s: Reindex order differs from the stable popcount sort", label)
	}
	inv := make([]int32, g.NumVars())
	for v := range inv {
		inv[v] = -1
	}
	for i, v := range sigs {
		inv[v] = int32(i)
	}
	if !slices.Equal(lg.rank, inv) {
		t.Fatalf("%s: rank is not the inverse of the signal order", label)
	}
	defer lg.SetMaxPerNode(lg.MaxPerNode())
	for _, v := range g.Topo() {
		if !g.IsAnd(v) {
			continue
		}
		ref := refCandidates(g, s, sigs, pops, v)
		for _, k := range []int{1, 3, 8} {
			lg.SetMaxPerNode(k)
			var got []aig.Lit
			for _, c := range lg.CandidatesFor(v) {
				got = append(got, c.NewLit)
			}
			if want := ref[:min(k, len(ref))]; !slices.Equal(got, want) {
				t.Fatalf("%s: node %d, MaxPerNode %d: candidates %v, want %v", label, v, k, got, want)
			}
		}
	}
}

// TestSASIMIOrderMatchesStableReference pins both SASIMI orders to their
// total definitions — (popcount, list position) for the signal index and
// (distance, scan index) for a target's candidates — on the generated
// small suite, after each step of a random applied-LAC sequence, and on
// tie-heavy random graphs, so synthesis results do not depend on any sort
// implementation.
func TestSASIMIOrderMatchesStableReference(t *testing.T) {
	suite := gen.SmallSuite(true)
	if testing.Short() {
		suite = suite[:4]
	}
	for _, b := range suite {
		g := b.Graph.Sweep()
		s := sim.New(g, sim.Options{Patterns: 512, Seed: 1})
		checkSASIMIOrder(t, b.PaperName, g, s, NewGenerator(g, s, Options{SASIMI: true}))
	}

	rng := rand.New(rand.NewSource(71))
	g := gen.ALU(8).Sweep()
	s := sim.New(g, sim.Options{Patterns: 1024, Seed: 71})
	lg := NewGenerator(g, s, Options{SASIMI: true})
	for step := 0; step < 12; step++ {
		var cands []LAC
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				cands = append(cands, lg.CandidatesFor(v)...)
			}
		}
		if len(cands) == 0 {
			break
		}
		l := cands[rng.Intn(len(cands))]
		s.ResimulateFrom(g.ReplaceWithLit(l.Target, l.NewLit).Rewired)
		lg.Reindex()
		checkSASIMIOrder(t, fmt.Sprintf("ALU(8) step %d", step), g, s, lg)
	}

	// Few patterns: popcounts lie in [0, 64] and distances in [0, 32], so
	// both orders are decided mostly by their tie-breaks.
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 4+rng.Intn(6), 60+rng.Intn(200), 6)
		s := sim.New(g, sim.Options{Patterns: 64, Seed: int64(trial)})
		checkSASIMIOrder(t, fmt.Sprintf("tie-heavy trial %d", trial), g, s, NewGenerator(g, s, Options{SASIMI: true}))
	}
}

var sinkLACs int

// BenchmarkSASIMICandidates rebuilds the similarity index and generates
// the SASIMI candidates of every AND of the 9×8 signed multiplier at 1024
// patterns, through the shared buffer Evaluate uses; steady state
// allocates nothing.
func BenchmarkSASIMICandidates(b *testing.B) {
	g := gen.MultS(9, 8)
	s := sim.New(g, sim.Options{Patterns: 1024, Seed: 1})
	lg := NewGenerator(g, s, Options{SASIMI: true})
	var ands []int32
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			ands = append(ands, v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Reindex()
		out := lg.lacBuf[:0]
		for _, v := range ands {
			out = lg.appendCandidates(out, v)
		}
		lg.lacBuf = out
		sinkLACs += len(out)
	}
}
