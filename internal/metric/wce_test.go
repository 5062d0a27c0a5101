package metric

import (
	"math"
	"math/rand"
	"testing"

	"dpals/internal/bitvec"
)

// computeWCEBrute derives the sampled worst case directly from the PO
// words as integers — an independent reference for the folded kernels.
func computeWCEBrute(exact, approx []bitvec.Vec, patterns int) float64 {
	worst := 0.0
	for i := 0; i < patterns; i++ {
		var e, a uint64
		for o := range exact {
			if exact[o].Get(i) {
				e |= 1 << uint(o)
			}
			if approx[o].Get(i) {
				a |= 1 << uint(o)
			}
		}
		d := math.Abs(float64(e) - float64(a))
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestWCEComputeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		nPO, words, patterns := 6, 2, 128
		exact := randVecs(rng, nPO, words)
		approx := randVecs(rng, nPO, words)
		got := Compute(WCE, UnsignedWeights(nPO), exact, approx, patterns)
		want := computeWCEBrute(exact, approx, patterns)
		if got != want {
			t.Fatalf("trial %d: Compute(WCE) = %v, brute force %v", trial, got, want)
		}
	}
}

// CommitPO must keep the incremental maximum exact, including the rescan
// path where the pattern that held the maximum has its deviation reduced.
func TestWCECommitPOMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		nPO, words, patterns := 6, 3, 192
		exact := randVecs(rng, nPO, words)
		weights := UnsignedWeights(nPO)
		st := NewState(WCE, exact, weights, patterns)
		approx := make([]bitvec.Vec, nPO)
		for o := range approx {
			approx[o] = exact[o].Clone()
		}
		for step := 0; step < 12; step++ {
			o := rng.Intn(nPO)
			nv := approx[o].Clone()
			for b := 0; b < 8; b++ {
				nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
			}
			approx[o] = nv
			st.CommitPO(o, nv)
			want := Compute(WCE, weights, exact, approx, patterns)
			if got := st.Error(); got != want {
				t.Fatalf("trial %d step %d: incremental WCE %v, scratch %v", trial, step, got, want)
			}
		}
	}
}

// The WCE candidate evaluation is a deliberate over-approximation: it
// never rescans untouched patterns, so it returns an UPPER bound on the
// post-apply sampled maximum — engine acceptance under it can only be
// conservative. It must (a) dominate the true post-apply value, (b) never
// exceed max(current, touched) by construction, and (c) be exact whenever
// the pre-change maximum survives.
func TestWCEEvalLACUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exactEvery := 0
	for trial := 0; trial < 40; trial++ {
		nPO, words, patterns := 6, 2, 128
		exact := randVecs(rng, nPO, words)
		weights := UnsignedWeights(nPO)
		st := NewState(WCE, exact, weights, patterns)
		approx := make([]bitvec.Vec, nPO)
		for o := range approx {
			approx[o] = exact[o].Clone()
		}
		for step := 0; step < 3; step++ {
			o := rng.Intn(nPO)
			nv := approx[o].Clone()
			for b := 0; b < 5; b++ {
				nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
			}
			approx[o] = nv
			st.CommitPO(o, nv)
		}
		for cand := 0; cand < 10; cand++ {
			D := bitvec.NewWords(words)
			for w := range D {
				D[w] = rng.Uint64() & rng.Uint64()
			}
			row := &testRow{}
			for o := 0; o < nPO; o++ {
				if rng.Intn(2) == 0 {
					continue
				}
				p := bitvec.NewWords(words)
				for w := range p {
					p[w] = rng.Uint64()
				}
				row.POs = append(row.POs, int32(o))
				row.Diffs = append(row.Diffs, p)
			}
			before := st.Error()
			got := st.EvalLAC(D, row)
			if st.Error() != before {
				t.Fatal("EvalLAC modified the state")
			}
			would := applyLACToPOs(approx, D, row)
			truth := Compute(WCE, weights, exact, would, patterns)
			if got < truth {
				t.Fatalf("trial %d cand %d: estimate %v below true post-apply maximum %v — acceptance would overshoot the bound", trial, cand, got, truth)
			}
			if got == truth {
				exactEvery++
			}
			if got < before {
				t.Fatalf("estimate %v below the untouched-pattern floor %v", got, before)
			}
		}
	}
	if exactEvery == 0 {
		t.Fatal("estimate was never exact — the fold is looser than designed")
	}
}
