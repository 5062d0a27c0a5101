package metric

import (
	"math"
	"math/rand"
	"testing"

	"dpals/internal/bitvec"
)

// testRow is a change propagation row as package cpm builds it: Diffs[i]
// holds the patterns on which a flip of the target flips PO POs[i].
type testRow struct {
	POs   []int32
	Diffs []bitvec.Vec
}

// EvalLAC scores one candidate whose value-change mask D is materialised:
// a one-element ScoreBatch.
func (st *State) EvalLAC(D bitvec.Vec, row *testRow) float64 {
	var out [1]float64
	var masks [1]uint64
	st.ScoreBatch(row.POs, row.Diffs, []Operands{{A: D}}, out[:], masks[:], nil)
	return out[0]
}

func randVecs(rng *rand.Rand, n, words int) []bitvec.Vec {
	out := make([]bitvec.Vec, n)
	for i := range out {
		out[i] = bitvec.NewWords(words)
		for w := range out[i] {
			out[i][w] = rng.Uint64()
		}
	}
	return out
}

func TestWeights(t *testing.T) {
	u := UnsignedWeights(4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if u[i] != want[i] {
			t.Errorf("unsigned[%d] = %v", i, u[i])
		}
	}
	s := TwosComplementWeights(4)
	if s[3] != -8 || s[0] != 1 {
		t.Errorf("twos complement = %v", s)
	}
}

func TestReferenceError(t *testing.T) {
	if got := ReferenceError(3); math.Abs(got-2) > 1e-12 {
		t.Errorf("R(3) = %v, want 2", got)
	}
	if got := ReferenceError(6); math.Abs(got-4) > 1e-12 {
		t.Errorf("R(6) = %v, want 4", got)
	}
}

func TestThresholds(t *testing.T) {
	// K = 6 outputs → R = 4.
	er := Thresholds(ER, 6)
	if er[0] != 0.001 || er[1] != 0.01 || er[2] != 0.02 {
		t.Errorf("ER thresholds %v", er)
	}
	med := Thresholds(MED, 6)
	if math.Abs(med[0]-2) > 1e-9 || math.Abs(med[1]-4) > 1e-9 || math.Abs(med[2]-8) > 1e-9 {
		t.Errorf("MED thresholds %v, want {2,4,8}", med)
	}
	mse := Thresholds(MSE, 6)
	if math.Abs(mse[1]-16) > 1e-9 {
		t.Errorf("MSE median %v, want 16", mse[1])
	}
	if mse[0] >= mse[1] || mse[1] >= mse[2] {
		t.Errorf("MSE thresholds not increasing: %v", mse)
	}
}

// TestReferenceWCEBound: R rounded down, floored at 1 for tiny circuits.
func TestReferenceWCEBound(t *testing.T) {
	for k, want := range map[int]uint64{0: 1, 1: 1, 3: 2, 6: 4, 8: 6, 17: 50} {
		if got := ReferenceWCEBound(k); got != want {
			t.Errorf("ReferenceWCEBound(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestErrorInitiallyZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exact := randVecs(rng, 5, 2)
	for _, k := range []Kind{ER, MSE, MED, MHD} {
		st := NewState(k, exact, UnsignedWeights(5), 128)
		if st.Error() != 0 {
			t.Errorf("%v initial error = %v", k, st.Error())
		}
	}
}

func TestCommitPOMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		nPO, words, patterns := 6, 3, 192
		exact := randVecs(rng, nPO, words)
		for _, k := range []Kind{ER, MSE, MED, MHD} {
			st := NewState(k, exact, TwosComplementWeights(nPO), patterns)
			approx := make([]bitvec.Vec, nPO)
			for o := range approx {
				approx[o] = exact[o].Clone()
			}
			// Apply a sequence of random PO perturbations.
			for step := 0; step < 10; step++ {
				o := rng.Intn(nPO)
				nv := approx[o].Clone()
				for b := 0; b < 8; b++ {
					nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
				}
				approx[o] = nv
				st.CommitPO(o, nv)
				want := Compute(k, TwosComplementWeights(nPO), exact, approx, patterns)
				if math.Abs(st.Error()-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%v trial %d step %d: incremental %v vs scratch %v", k, trial, step, st.Error(), want)
				}
			}
		}
	}
}

// applyLACToPOs returns the PO words after flipping, for each row PO, the
// patterns in D ∧ P.
func applyLACToPOs(cur []bitvec.Vec, D bitvec.Vec, row *testRow) []bitvec.Vec {
	out := make([]bitvec.Vec, len(cur))
	for o := range cur {
		out[o] = cur[o].Clone()
	}
	for i, o := range row.POs {
		flips := bitvec.NewWords(len(D))
		flips.And(D, row.Diffs[i])
		out[o].XorWith(flips)
	}
	return out
}

func TestEvalLACMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nPO, words, patterns := 7, 2, 128
		exact := randVecs(rng, nPO, words)
		weights := UnsignedWeights(nPO)
		for _, k := range []Kind{ER, MSE, MED, MHD} {
			st := NewState(k, exact, weights, patterns)
			approx := make([]bitvec.Vec, nPO)
			for o := range approx {
				approx[o] = exact[o].Clone()
			}
			// Put the state into a nontrivial position first.
			for step := 0; step < 3; step++ {
				o := rng.Intn(nPO)
				nv := approx[o].Clone()
				for b := 0; b < 5; b++ {
					nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
				}
				approx[o] = nv
				st.CommitPO(o, nv)
			}
			// Evaluate random candidate LACs; each must match the
			// from-scratch metric of the would-be PO words, and must not
			// disturb the state.
			for cand := 0; cand < 10; cand++ {
				D := bitvec.NewWords(words)
				for w := range D {
					D[w] = rng.Uint64() & rng.Uint64() // sparse-ish
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
					t.Fatalf("%v: EvalLAC modified the state", k)
				}
				would := applyLACToPOs(approx, D, row)
				want := Compute(k, weights, exact, would, patterns)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%v trial %d cand %d: EvalLAC %v vs scratch %v", k, trial, cand, got, want)
				}
				// Scoring is a pure read: re-evaluating must give exactly
				// the same answer (scratch reset).
				if again := st.EvalLAC(D, row); again != got {
					t.Fatalf("%v: EvalLAC not idempotent: %v vs %v", k, again, got)
				}
			}
		}
	}
}

// Zero-effect LACs (empty D or empty row) must report the current error,
// and an empty batch must write nothing.
func TestEvalLACNoEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	exact := randVecs(rng, 3, 2)
	weights := UnsignedWeights(3)
	for _, k := range []Kind{ER, MSE, MED, MHD, WCE} {
		st := NewState(k, exact, weights, 128)
		nv := exact[1].Clone()
		nv.Set(5, !nv.Get(5))
		st.CommitPO(1, nv)
		cur := st.Error()
		if got := st.EvalLAC(bitvec.NewWords(2), &testRow{}); got != cur {
			t.Errorf("%v: empty LAC eval = %v, want current %v", k, got, cur)
		}
		D := bitvec.NewWords(2)
		D.SetAll()
		if got := st.EvalLAC(D, &testRow{}); got != cur {
			t.Errorf("%v: empty-row LAC eval = %v, want current %v", k, got, cur)
		}
		row := &testRow{POs: []int32{0, 1, 2}, Diffs: []bitvec.Vec{D, D, D}}
		out := []float64{42}
		st.ScoreBatch(row.POs, row.Diffs, nil, out, nil, nil)
		if out[0] != 42 || st.Error() != cur {
			t.Errorf("%v: empty batch wrote %v (error %v, want %v)", k, out[0], st.Error(), cur)
		}
	}
}
