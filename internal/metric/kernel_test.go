package metric

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dpals/internal/bitvec"
)

// refEvalFlips is the per-bit scatter reference for one candidate: it
// visits row POs in order, words and bits ascending, accumulates each
// flipped pattern's delta in pattern-sized scratch, and folds the touched
// patterns in first-touch order.
func refEvalFlips(st *State, a, b bitvec.Vec, inv uint64, row *testRow) float64 {
	x := float64(st.patterns)
	if st.kind == MHD {
		sum := st.mismSum
		for ri, o := range row.POs {
			for wi := range a {
				w := flipWord(a, b, inv, wi) & row.Diffs[ri][wi]
				agree := ^(st.cur[o][wi] ^ st.exact[o][wi])
				sum += int64(bits.OnesCount64(w&agree)) - int64(bits.OnesCount64(w&^agree))
			}
		}
		return float64(sum) / x
	}
	delta := make([]float64, st.patterns)
	dMism := make([]int32, st.patterns)
	onStack := make([]bool, st.patterns)
	var touched []int
	for ri, o := range row.POs {
		for wi := range a {
			w := flipWord(a, b, inv, wi) & row.Diffs[ri][wi]
			cw := st.cur[o][wi]
			agree := ^(cw ^ st.exact[o][wi])
			for ; w != 0; w &= w - 1 {
				bit := bits.TrailingZeros64(w)
				i := wi<<6 + bit
				if !onStack[i] {
					onStack[i] = true
					touched = append(touched, i)
				}
				if st.kind == ER {
					if agree>>uint(bit)&1 != 0 {
						dMism[i]++
					} else {
						dMism[i]--
					}
				} else if cw>>uint(bit)&1 != 0 {
					delta[i] -= st.weights[o]
				} else {
					delta[i] += st.weights[o]
				}
			}
		}
	}
	switch st.kind {
	case ER:
		cnt := st.errCount
		for _, i := range touched {
			was, now := st.mism[i] > 0, st.mism[i]+dMism[i] > 0
			if was && !now {
				cnt--
			} else if !was && now {
				cnt++
			}
		}
		return float64(cnt) / x
	case MSE:
		sum := st.errSum
		for _, i := range touched {
			nd := st.dev[i] + delta[i]
			sum += nd*nd - st.dev[i]*st.dev[i]
		}
		return sum / x
	case MED:
		sum := st.errSum
		for _, i := range touched {
			nd := st.dev[i] + delta[i]
			sum += math.Abs(nd) - math.Abs(st.dev[i])
		}
		return sum / x
	default: // WCE
		out := st.wceMax
		for _, i := range touched {
			if nd := math.Abs(st.dev[i] + delta[i]); nd > out {
				out = nd
			}
		}
		return out
	}
}

func flipWord(a, b bitvec.Vec, inv uint64, wi int) uint64 {
	w := a[wi] ^ inv
	if b != nil {
		w ^= b[wi]
	}
	return w
}

// batchFixture is a metric state pushed into a nontrivial position by
// random PO commits, plus one random row and a batch of candidates that
// share it, as all the candidates of one target do.
type batchFixture struct {
	st  *State
	row *testRow
	ops []Operands
}

// newBatchFixture draws nPO outputs over patterns patterns (not
// necessarily a multiple of 64). The row lists a random subset of the POs
// in random order, with diff vectors masked to the pattern count like
// every CPM row. The batch holds up to maxCands candidates mixing
// complementary constant pairs (nil B, Inv zero and all-ones), sparse
// SASIMI-like substitutions (direct and complemented), dense random masks
// and duplicates of earlier candidates.
func newBatchFixture(rng *rand.Rand, kind Kind, weights Weights, nPO, patterns, maxCands int) batchFixture {
	words := bitvec.Words(patterns)
	exact := randVecs(rng, nPO, words)
	for _, e := range exact {
		e.Mask(patterns)
	}
	st := NewState(kind, exact, weights, patterns)
	for step := 0; step < 2*nPO; step++ {
		o := rng.Intn(nPO)
		nv := st.cur[o].Clone()
		for k := 0; k < patterns/4; k++ {
			nv.Set(rng.Intn(patterns), rng.Intn(2) == 1)
		}
		st.CommitPO(o, nv)
	}
	f := batchFixture{st: st, row: &testRow{}}
	for _, o := range rng.Perm(nPO) {
		if rng.Intn(3) == 0 {
			continue
		}
		p := randVecs(rng, 1, words)[0]
		if rng.Intn(2) == 0 {
			for w := range p {
				p[w] &= rng.Uint64()
			}
		}
		p.Mask(patterns)
		f.row.POs = append(f.row.POs, int32(o))
		f.row.Diffs = append(f.row.Diffs, p)
	}
	target := randVecs(rng, 1, words)[0]
	target.Mask(patterns)
	n := rng.Intn(maxCands + 1)
	for len(f.ops) < n {
		switch rng.Intn(4) {
		case 0: // constant 0 and constant 1
			f.ops = append(f.ops, Operands{A: target}, Operands{A: target, Inv: ^uint64(0)})
		case 1: // similar signal, possibly complemented: sparse flips
			b := bitvec.NewWords(words)
			for w := range b {
				b[w] = target[w] ^ (rng.Uint64() & rng.Uint64() & rng.Uint64())
			}
			op := Operands{A: target, B: b}
			if rng.Intn(2) == 0 {
				for w := range b {
					b[w] = ^b[w]
				}
				b.Mask(patterns)
				op.Inv = ^uint64(0)
			}
			f.ops = append(f.ops, op)
		case 2: // unrelated signal: dense flips
			op := Operands{A: target, B: randVecs(rng, 1, words)[0]}
			if rng.Intn(2) == 0 {
				op.Inv = ^uint64(0)
			}
			f.ops = append(f.ops, op)
		case 3:
			if len(f.ops) > 0 {
				f.ops = append(f.ops, f.ops[rng.Intn(len(f.ops))])
			}
		}
	}
	f.ops = f.ops[:n]
	return f
}

// score runs ScoreBatch on ops with freshly sized buffers.
func (f batchFixture) score(ops []Operands) []float64 {
	out := make([]float64, len(ops))
	f.st.ScoreBatch(f.row.POs, f.row.Diffs, ops, out, make([]uint64, len(ops)), nil)
	return out
}

// Every batch score must equal (==) what the per-bit scatter kernel
// returns for that candidate alone, for every metric, on unsigned and
// two's-complement weights and a pattern count with a partial last word.
// A score must also not depend on its batch: it has the same bits scored
// alone, in the batch and in the reversed batch.
func TestScoreBatchMatchesScatterReference(t *testing.T) {
	const nPO, patterns = 12, 1000
	rng := rand.New(rand.NewSource(21))
	for _, ws := range []struct {
		name    string
		weights Weights
	}{
		{"unsigned", UnsignedWeights(nPO)},
		{"twoscomplement", TwosComplementWeights(nPO)},
	} {
		for _, kind := range []Kind{ER, MSE, MED, WCE, MHD} {
			for trial := 0; trial < 40; trial++ {
				f := newBatchFixture(rng, kind, ws.weights, nPO, patterns, 10)
				got := f.score(f.ops)
				rev := slices.Clone(f.ops)
				slices.Reverse(rev)
				gotRev := f.score(rev)
				for c, op := range f.ops {
					want := refEvalFlips(f.st, op.A, op.B, op.Inv, f.row)
					if got[c] != want {
						t.Fatalf("%s %v trial %d cand %d of %d: batch %v, scatter reference %v", ws.name, kind, trial, c, len(f.ops), got[c], want)
					}
					alone := f.score(f.ops[c : c+1])[0]
					reversed := gotRev[len(f.ops)-1-c]
					if math.Float64bits(alone) != math.Float64bits(got[c]) || math.Float64bits(reversed) != math.Float64bits(got[c]) {
						t.Fatalf("%s %v trial %d cand %d: batch %v, alone %v, reversed batch %v", ws.name, kind, trial, c, got[c], alone, reversed)
					}
				}
			}
		}
	}
}

// ScoreBatch only reads the state, so concurrent calls, each with its own
// buffers, must agree with a serial pass (and, under -race, must not
// race).
func TestScoreBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range []Kind{ER, MSE, MED, WCE, MHD} {
		var fs []batchFixture
		var want [][]float64
		for len(fs) < 16 {
			f := newBatchFixture(rng, kind, TwosComplementWeights(8), 8, 300, 10)
			fs = append(fs, f)
			want = append(want, f.score(f.ops))
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out, masks := make([]float64, 10), make([]uint64, 10)
				for r := 0; r < 8; r++ {
					for i := range fs {
						k := (i + g) % len(fs)
						f := fs[k]
						f.st.ScoreBatch(f.row.POs, f.row.Diffs, f.ops, out, masks, nil)
						if !slices.Equal(out[:len(f.ops)], want[k]) {
							errs <- kind.String()
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for k := range errs {
			t.Fatalf("%s: a concurrent ScoreBatch disagreed with the serial pass", k)
		}
	}
}

// BenchmarkScoreBatch scores batches against a dense 32-PO row over 8192
// patterns, per metric: one sparse candidate, a complementary constant
// pair, and eight sparse substitutions of one target. ns/cand is the time
// per scored candidate.
func BenchmarkScoreBatch(b *testing.B) {
	const nPO, words = 32, 128
	for _, kind := range []Kind{ER, MED, MSE, WCE} {
		rng := rand.New(rand.NewSource(5))
		exact := randVecs(rng, nPO, words)
		st := NewState(kind, exact, UnsignedWeights(nPO), words*64)
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
		sparse := func() Operands {
			v := bitvec.NewWords(words)
			for w := range v {
				v[w] = target[w] ^ (rng.Uint64() & rng.Uint64() & rng.Uint64())
			}
			return Operands{A: target, B: v}
		}
		batches := []struct {
			name string
			ops  []Operands
		}{
			{"1", []Operands{sparse()}},
			{"const2", []Operands{{A: target}, {A: target, Inv: ^uint64(0)}}},
			{"sparse8", []Operands{sparse(), sparse(), sparse(), sparse(), sparse(), sparse(), sparse(), sparse()}},
		}
		for _, bt := range batches {
			b.Run(kind.String()+"/"+bt.name, func(b *testing.B) {
				out, masks := make([]float64, len(bt.ops)), make([]uint64, len(bt.ops))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.ScoreBatch(row.POs, row.Diffs, bt.ops, out, masks, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bt.ops)), "ns/cand")
			})
		}
	}
}
