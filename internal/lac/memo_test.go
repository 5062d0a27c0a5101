package lac

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// memoBed builds the evaluation environment the memo tests share.
func memoBed(t *testing.T, seed int64) (gen *Generator, res *cpm.Result, st *metric.State, targets []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, 6, 60, 5)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: seed})
	exact := make([]bitvec.Vec, g.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(s.Words())
		s.POVal(o, exact[o])
	}
	st = metric.NewState(metric.MED, exact, metric.UnsignedWeights(g.NumPOs()), s.Patterns())
	res = fullCPM(context.Background(), g, s)
	gen = NewGenerator(g, s, Options{Constants: true, SASIMI: true})
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			targets = append(targets, v)
		}
	}
	return gen, res, st, targets
}

// TestMemoHitsAreBitIdentical: under an unchanged state, a memoized second
// evaluation must serve every target from the memo and return exactly the
// memo-less result — bests, order, and the charged work estimate.
func TestMemoHitsAreBitIdentical(t *testing.T) {
	gen, res, st, targets := memoBed(t, 67)
	ctx := context.Background()
	plain, pwork, _, _, err := Evaluate(ctx, gen, res, st, targets, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(int(gen.g.NumVars()))
	first, fwork, frw, fhits, err := Evaluate(ctx, gen, res, st, targets, 1, memo)
	if err != nil {
		t.Fatal(err)
	}
	if fhits != 0 || frw != 0 {
		t.Fatalf("cold memo pass reported %d hits / %d reused work", fhits, frw)
	}
	if fwork != pwork {
		t.Fatalf("memo pass work %d, memo-less %d", fwork, pwork)
	}
	for _, threads := range []int{1, 4} {
		second, swork, srw, shits, err := Evaluate(ctx, gen, res, st, targets, threads, memo)
		if err != nil {
			t.Fatal(err)
		}
		if shits != len(first) {
			t.Fatalf("threads=%d: %d hits, want every kept target (%d)", threads, shits, len(first))
		}
		if swork != pwork || srw != pwork {
			t.Fatalf("threads=%d: charged work %d (reused %d), want cold-equivalent %d", threads, swork, srw, pwork)
		}
		if len(second) != len(plain) {
			t.Fatalf("threads=%d: %d bests, want %d", threads, len(second), len(plain))
		}
		for i := range plain {
			if second[i].Node != plain[i].Node ||
				second[i].Best.Err != plain[i].Best.Err ||
				second[i].Best.LAC != plain[i].Best.LAC ||
				second[i].N != plain[i].N {
				t.Fatalf("threads=%d: best[%d] = %+v, want %+v", threads, i, second[i], plain[i])
			}
		}
	}
}

// TestMemoInvalidateDropsEverything: after Invalidate no target may be
// served from the memo.
func TestMemoInvalidateDropsEverything(t *testing.T) {
	gen, res, st, targets := memoBed(t, 71)
	ctx := context.Background()
	memo := NewMemo(int(gen.g.NumVars()))
	if _, _, _, _, err := Evaluate(ctx, gen, res, st, targets, 1, memo); err != nil {
		t.Fatal(err)
	}
	memo.Invalidate()
	_, _, rw, hits, err := Evaluate(ctx, gen, res, st, targets, 1, memo)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || rw != 0 {
		t.Fatalf("post-Invalidate pass served %d hits / %d reused work", hits, rw)
	}
}

// TestNilMemoMatchesEvaluateTargets: a nil memo disables memoization — a
// repeated evaluation under an unchanged state recomputes every target,
// reports no hits, and matches a memoized evaluation's bests and work.
func TestNilMemoMatchesEvaluateTargets(t *testing.T) {
	gen, res, st, targets := memoBed(t, 73)
	ctx := context.Background()
	memo := NewMemo(int(gen.g.NumVars()))
	withMemo, wwork, _, _, err := Evaluate(ctx, gen, res, st, targets, 1, memo)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		plain, pwork, rw, hits, err := Evaluate(ctx, gen, res, st, targets, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hits != 0 || rw != 0 {
			t.Fatalf("pass %d: nil memo reported %d hits / %d reused work", pass, hits, rw)
		}
		if pwork != wwork || len(plain) != len(withMemo) {
			t.Fatalf("pass %d: nil-memo pass diverges: work %d vs %d, %d vs %d bests", pass, pwork, wwork, len(plain), len(withMemo))
		}
		for i := range plain {
			if plain[i] != withMemo[i] {
				t.Fatalf("pass %d: best[%d] = %+v, want %+v", pass, i, plain[i], withMemo[i])
			}
		}
	}
}

// foldBed is a phase-2-like evaluation environment: a random graph, its
// metric state and CPM, and a candidate set of targets whose memo holds
// fold records.
type foldBed struct {
	g     *aig.Graph
	s     *sim.Sim
	st    *metric.State
	res   *cpm.Result
	gen   *Generator
	scand []int32
	memo  *Memo
}

func newFoldBed(seed int64, kind metric.Kind) *foldBed {
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, 8, 90, 6)
	s := sim.New(g, sim.Options{Patterns: 1000, Seed: seed})
	exact := make([]bitvec.Vec, g.NumPOs())
	for o := range exact {
		exact[o] = bitvec.NewWords(s.Words())
		s.POVal(o, exact[o])
	}
	b := &foldBed{g: g, s: s, memo: NewMemo(g.NumVars())}
	b.st = metric.NewState(kind, exact, metric.UnsignedWeights(g.NumPOs()), s.Patterns())
	b.res = fullCPM(context.Background(), g, s)
	b.gen = NewGenerator(g, s, Options{Constants: true, SASIMI: true, MaxPerNode: 4})
	for _, v := range g.Topo() {
		if g.IsAnd(v) && rng.Intn(2) == 0 {
			b.scand = append(b.scand, v)
		}
	}
	b.memo.KeepFolds(b.scand)
	return b
}

// apply commits l the way the engine does: rewire, resimulate, fold the
// PO changes into the metric state, rebuild the CPM and the similarity
// index, invalidate the memo's evaluations, and drop dead targets.
func (b *foldBed) apply(l LAC) {
	cs := b.g.ReplaceWithLit(l.Target, l.NewLit)
	b.s.ResimulateFrom(cs.Rewired)
	po := bitvec.NewWords(b.s.Words())
	for o := 0; o < b.g.NumPOs(); o++ {
		b.s.POVal(o, po)
		b.st.CommitPO(o, po)
	}
	b.res = fullCPM(context.Background(), b.g, b.s)
	b.gen.Reindex()
	b.memo.Invalidate()
	live := b.scand[:0]
	for _, v := range b.scand {
		if b.g.IsAnd(v) {
			live = append(live, v)
		}
	}
	b.scand = live
}

// sameBests reports whether two evaluations are bit-identical.
func sameBests(a, b []NodeBest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].N != b[i].N || a[i].Best.LAC != b[i].Best.LAC ||
			math.Float64bits(a[i].Best.Err) != math.Float64bits(b[i].Best.Err) {
			return false
		}
	}
	return true
}

// Across a random sequence of applies, evaluating the candidate set
// through fold records must return exactly the bests and work of a
// memo-less evaluation, at every thread count, while reusing words.
func TestFoldedEvaluateMatchesNilMemo(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []metric.Kind{metric.ER, metric.MSE, metric.MED, metric.MHD, metric.WCE} {
		b := newFoldBed(83, kind)
		rng := rand.New(rand.NewSource(84))
		for step := 0; step < 12 && len(b.scand) > 0; step++ {
			want, wwork, _, _, err := Evaluate(ctx, b.gen, b.res, b.st, b.scand, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 3} {
				b.memo.Invalidate() // score, do not serve the last NodeBests
				got, gwork, _, _, err := Evaluate(ctx, b.gen, b.res, b.st, b.scand, threads, b.memo)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBests(got, want) || gwork != wwork {
					t.Fatalf("%v step %d threads %d: folded evaluation differs from the memo-less one", kind, step, threads)
				}
			}
			if len(want) == 0 {
				break
			}
			b.apply(want[rng.Intn(len(want))].Best.LAC)
		}
		if r, rf := b.memo.FoldWords(); r == 0 || rf == 0 {
			t.Fatalf("%v: %d words reused, %d refolded: the sequence does not exercise both", kind, r, rf)
		}
	}
}

// A CPM row corrupted in place (the flip-diff-bit fault) must reach the
// scores even when its target's fold record holds the uncorrupted row:
// the record compares row content, so the flipped word is re-folded and
// the folded evaluation equals a memo-less one on the corrupted rows. At
// least one flip must move a best, or the check would prove nothing.
func TestFoldRefoldsFlippedDiffBit(t *testing.T) {
	ctx := context.Background()
	b := newFoldBed(89, metric.MED)
	rng := rand.New(rand.NewSource(90))
	for step := 0; step < 3; step++ {
		bests, _, _, _, _ := Evaluate(ctx, b.gen, b.res, b.st, b.scand, 1, b.memo)
		b.apply(bests[rng.Intn(len(bests))].Best.LAC)
	}
	moved := 0
	for site := 0; site < 40; site++ {
		b.memo.Invalidate()
		before, _, _, _, err := Evaluate(ctx, b.gen, b.res, b.st, b.scand, 1, b.memo)
		if err != nil {
			t.Fatal(err)
		}
		r0, _ := b.memo.FoldWords()
		if !b.res.FlipDiffBit(site * 7) {
			t.Fatal("no row to corrupt")
		}
		b.memo.Invalidate()
		got, _, _, _, err := Evaluate(ctx, b.gen, b.res, b.st, b.scand, 1, b.memo)
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := b.memo.FoldWords(); r == r0 {
			t.Fatalf("site %d: the evaluation after the flip reused no word", site)
		}
		want, _, _, _, _ := Evaluate(ctx, b.gen, b.res, b.st, b.scand, 1, nil)
		if !sameBests(got, want) {
			t.Fatalf("site %d: the fold record hid a flipped diff bit", site)
		}
		if !sameBests(got, before) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no flipped diff bit moved a best")
	}
}
