package metric

import (
	"math"
	"math/rand"
	"testing"

	"dpals/internal/bitvec"
)

// scoreFold runs ScoreBatch on ops through fold record f (nil: the
// sequential path) and returns the scores and the mask-word counts.
func (f batchFixture) scoreFold(ops []Operands, rec *Fold) ([]float64, int, int) {
	out := make([]float64, len(ops))
	r, rf := f.st.ScoreBatch(f.row.POs, f.row.Diffs, ops, out, make([]uint64, len(ops)), rec)
	return out, r, rf
}

// mutate applies one random edit of the kind a phase-2 apply makes to a
// scoring target's inputs: a PO commit that changes a few words of the
// error state, a candidate's mask edited on one word, the target's value
// edited on one word (every slot's mask), a row diff word edited, a PO
// dropped from or added to the row, or the candidate list reordered,
// shrunk or grown.
func (f *batchFixture) mutate(rng *rand.Rand, nPO, patterns int) {
	words := bitvec.Words(patterns)
	flipWord := func(v bitvec.Vec) {
		w := rng.Intn(words)
		v[w] ^= rng.Uint64() & rng.Uint64()
		v.Mask(patterns)
	}
	switch rng.Intn(8) {
	case 0, 1: // commit: a few patterns of one PO change
		o := rng.Intn(nPO)
		nv := f.st.cur[o].Clone()
		for k := rng.Intn(4); k >= 0; k-- {
			nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
		}
		f.st.CommitPO(o, nv)
	case 2: // one slot's mask
		if len(f.ops) > 0 {
			c := rng.Intn(len(f.ops))
			op := f.ops[c]
			b := bitvec.NewWords(words)
			if op.B != nil {
				copy(b, op.B)
			}
			flipWord(b)
			op.B = b
			f.ops[c] = op
		}
	case 3: // the target's value: every slot's mask
		if len(f.ops) > 0 {
			a := f.ops[0].A.Clone()
			flipWord(a)
			for c := range f.ops {
				f.ops[c].A = a
			}
		}
	case 4: // one row word
		if len(f.row.Diffs) > 0 {
			ri := rng.Intn(len(f.row.Diffs))
			d := f.row.Diffs[ri].Clone()
			flipWord(d)
			f.row.Diffs[ri] = d
		}
	case 5: // the row's PO list: drop one PO, or add a missing one
		if len(f.row.POs) > 1 && rng.Intn(2) == 0 {
			ri := rng.Intn(len(f.row.POs))
			f.row.POs = append(f.row.POs[:ri:ri], f.row.POs[ri+1:]...)
			f.row.Diffs = append(f.row.Diffs[:ri:ri], f.row.Diffs[ri+1:]...)
			break
		}
		for _, o := range rng.Perm(nPO) {
			if !containsPO(f.row.POs, int32(o)) {
				p := randVecs(rng, 1, words)[0]
				p.Mask(patterns)
				f.row.POs = append(f.row.POs[:len(f.row.POs):len(f.row.POs)], int32(o))
				f.row.Diffs = append(f.row.Diffs[:len(f.row.Diffs):len(f.row.Diffs)], p)
				break
			}
		}
	case 6: // reorder the candidates
		ops := append([]Operands(nil), f.ops...)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		f.ops = ops
	case 7: // drop or duplicate a candidate
		if len(f.ops) > 1 && rng.Intn(2) == 0 {
			f.ops = f.ops[: len(f.ops)-1 : len(f.ops)-1]
		} else if len(f.ops) > 0 {
			f.ops = append(f.ops[:len(f.ops):len(f.ops)], f.ops[rng.Intn(len(f.ops))])
		}
	}
}

func containsPO(pos []int32, o int32) bool {
	for _, p := range pos {
		if p == o {
			return true
		}
	}
	return false
}

// pastGuard returns unsigned weights whose top weight is raised until the
// sum Σ|w| is the smallest for which 2·patterns·MaxDeviation reaches 2^52,
// the first weight set foldsExactly refuses, and (with past false) the
// largest it still admits.
func pastGuard(kind Kind, nPO, patterns int, past bool) Weights {
	w := UnsignedWeights(nPO)
	rest := 0.0
	for _, x := range w[:nPO-1] {
		rest += x
	}
	// Smallest S with 2·patterns·dev(S) ≥ 2^52, dev(S) = S (MED) or S².
	lo, hi := 1.0, float64(1<<52)
	for hi-lo > 1 {
		mid := math.Floor((lo + hi) / 2)
		dev := mid
		if kind == MSE {
			dev = mid * mid
		}
		if 2*float64(patterns)*dev >= 1<<52 {
			hi = mid
		} else {
			lo = mid
		}
	}
	if !past {
		hi--
	}
	w[nPO-1] = hi - rest
	return w
}

// A folded ScoreBatch must return exactly (bit for bit) the scores of a
// nil-fold call, whatever changed since the record was written: random
// commit sequences, mask edits, row-word edits, PO-list changes and
// candidate-list edits, for every metric. On weights past the exactness
// guard the record must be ignored, so the folded call reproduces the
// sequential floats and counts no word.
func TestFoldedScoreBatchMatchesNilFold(t *testing.T) {
	const nPO, patterns = 10, 1000
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []Kind{ER, MSE, MED, WCE, MHD} {
		sets := []struct {
			name    string
			weights Weights
			exact   bool
		}{
			{"unsigned", UnsignedWeights(nPO), true},
			{"twoscomplement", TwosComplementWeights(nPO), true},
		}
		if kind == MSE || kind == MED {
			sets = append(sets,
				struct {
					name    string
					weights Weights
					exact   bool
				}{"at-guard", pastGuard(kind, nPO, patterns, false), true},
				struct {
					name    string
					weights Weights
					exact   bool
				}{"past-guard", pastGuard(kind, nPO, patterns, true), false},
				struct {
					name    string
					weights Weights
					exact   bool
				}{"fractional", Weights{0.1, 0.3, 0.7, 1.1, 1.3, 2.9, 3.7, 5.3, 7.1, 11.3}, false})
		}
		for _, ws := range sets {
			var reused, refolded int
			for trial := 0; trial < 12; trial++ {
				f := newBatchFixture(rng, kind, ws.weights, nPO, patterns, 10)
				if f.st.foldExact != ws.exact {
					t.Fatalf("%v %s: foldExact = %v, want %v", kind, ws.name, f.st.foldExact, ws.exact)
				}
				var rec Fold
				for step := 0; step < 40; step++ {
					want, _, _ := f.scoreFold(f.ops, nil)
					got, r, rf := f.scoreFold(f.ops, &rec)
					reused, refolded = reused+r, refolded+rf
					for c := range want {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("%v %s trial %d step %d cand %d of %d: folded %v, nil fold %v", kind, ws.name, trial, step, c, len(want), got[c], want[c])
						}
					}
					f.mutate(rng, nPO, patterns)
				}
			}
			switch {
			case !ws.exact && reused+refolded != 0:
				t.Fatalf("%v %s: the fold was used past the exactness guard (%d reused, %d refolded)", kind, ws.name, reused, refolded)
			case ws.exact && (reused == 0 || refolded == 0):
				t.Fatalf("%v %s: %d words reused, %d refolded: the sequence does not exercise both", kind, ws.name, reused, refolded)
			}
		}
	}
}

// A record written against one State must never serve another, even one
// built from the same reference (a rollback rebuilds the State).
func TestFoldIgnoresOtherState(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := newBatchFixture(rng, MED, UnsignedWeights(8), 8, 512, 6)
	for len(f.ops) == 0 {
		f = newBatchFixture(rng, MED, UnsignedWeights(8), 8, 512, 6)
	}
	var rec Fold
	f.scoreFold(f.ops, &rec)
	if _, r, _ := f.scoreFold(f.ops, &rec); r == 0 {
		t.Fatal("an unchanged second call reused nothing")
	}
	other := f
	other.st = NewState(MED, f.st.exact, f.st.weights, f.st.patterns)
	want, _, _ := other.scoreFold(f.ops, nil)
	got, r, _ := other.scoreFold(f.ops, &rec)
	if r != 0 {
		t.Fatalf("a record of another State served %d words", r)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("cand %d: %v, want %v", c, got[c], want[c])
		}
	}
}

// BenchmarkScoreBatchRefold replays a phase-2-like sequence on one target:
// a dense 16-PO row over 4096 patterns and a complementary constant pair,
// re-scored after each commit that changes a few patterns of the error
// state, through a fold record (fold) and without one (nil). ns/cand is
// the time per scored candidate.
func BenchmarkScoreBatchRefold(b *testing.B) {
	const nPO, words = 16, 64
	for _, kind := range []Kind{ER, MED, WCE} {
		for _, folded := range []bool{false, true} {
			name := kind.String() + "/nil"
			if folded {
				name = kind.String() + "/fold"
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(6))
				st := NewState(kind, randVecs(rng, nPO, words), UnsignedWeights(nPO), words*64)
				row := &testRow{}
				for o := 0; o < nPO; o++ {
					p := bitvec.NewWords(words)
					for w := range p {
						p[w] = rng.Uint64() & rng.Uint64()
					}
					row.POs = append(row.POs, int32(o))
					row.Diffs = append(row.Diffs, p)
				}
				target := randVecs(rng, 1, words)[0]
				ops := []Operands{{A: target}, {A: target, Inv: ^uint64(0)}}
				// Each step changes 8 patterns of one PO: at most 8 of the 64
				// words, as one phase-2 apply changes a few.
				commits := make([]bitvec.Vec, 16)
				for i := range commits {
					o := i % nPO
					nv := st.cur[o].Clone()
					for k := 0; k < 8; k++ {
						nv.Set(rng.Intn(words*64), rng.Intn(2) == 1)
					}
					commits[i] = nv
				}
				var rec *Fold
				if folded {
					rec = &Fold{}
				}
				out, masks := make([]float64, len(ops)), make([]uint64, len(ops))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(commits)
					st.CommitPO(k%nPO, commits[k])
					st.ScoreBatch(row.POs, row.Diffs, ops, out, masks, rec)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/cand")
			})
		}
	}
}
