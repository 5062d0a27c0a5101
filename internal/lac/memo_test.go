package lac

import (
	"context"
	"math/rand"
	"testing"

	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
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
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	res, _ = cpm.BuildDisjoint(context.Background(), g, s, cuts, nil, 1)
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
