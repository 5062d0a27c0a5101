package metric

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"dpals/internal/bitvec"
	"dpals/internal/cpm"
)

// refEvalFlips is the per-bit scatter kernel the word-major fold replaced,
// kept as the reference: it visits row POs in order, words and bits
// ascending, accumulates each flipped pattern's delta in pattern-sized
// scratch, and folds the touched patterns in first-touch order.
func refEvalFlips(st *State, a, b bitvec.Vec, inv uint64, row *cpm.Row) float64 {
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

// kernelFixture is a metric state pushed into a nontrivial position by
// random PO commits, plus random candidate operands and rows.
type kernelFixture struct {
	st    *State
	cands []kernelCand
}

type kernelCand struct {
	a, b bitvec.Vec
	inv  uint64
	row  *cpm.Row
}

// newKernelFixture draws nPO outputs over patterns patterns (not
// necessarily a multiple of 64). Rows list a random subset of the POs in
// random order, with diff vectors masked to the pattern count like every
// CPM row; candidates mix sparse and dense masks, a nil b (constant
// replacement) and complemented operands.
func newKernelFixture(rng *rand.Rand, kind Kind, weights Weights, nPO, patterns, nCands int) kernelFixture {
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
	f := kernelFixture{st: st}
	for c := 0; c < nCands; c++ {
		var k kernelCand
		k.a = randVecs(rng, 1, words)[0]
		if rng.Intn(3) > 0 {
			k.b = randVecs(rng, 1, words)[0]
			if rng.Intn(2) == 0 { // similar signal: sparse difference
				for w := range k.b {
					k.b[w] = k.a[w] ^ (rng.Uint64() & rng.Uint64() & rng.Uint64())
				}
			}
		}
		if rng.Intn(2) == 0 {
			k.inv = ^uint64(0)
		}
		k.row = &cpm.Row{}
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
			k.row.POs = append(k.row.POs, int32(o))
			k.row.Diffs = append(k.row.Diffs, p)
		}
		f.cands = append(f.cands, k)
	}
	return f
}

// The word-major kernel must return exactly (==) what the per-bit scatter
// kernel returns, for every metric, on unsigned and two's-complement
// weights and a pattern count with a partial last word.
func TestEvalFlipsMatchesScatterReference(t *testing.T) {
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
			for trial := 0; trial < 6; trial++ {
				f := newKernelFixture(rng, kind, ws.weights, nPO, patterns, 40)
				for ci, c := range f.cands {
					got := f.st.EvalLACXor(c.a, c.b, c.inv, c.row)
					want := refEvalFlips(f.st, c.a, c.b, c.inv, c.row)
					if got != want {
						t.Fatalf("%s %v trial %d cand %d: word-major %v, scatter reference %v", ws.name, kind, trial, ci, got, want)
					}
				}
			}
		}
	}
}

// EvalLACXor only reads the state, so concurrent calls must agree with a
// serial pass (and, under -race, must not race).
func TestEvalLACXorConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range []Kind{ER, MSE, MED, WCE, MHD} {
		f := newKernelFixture(rng, kind, TwosComplementWeights(8), 8, 300, 32)
		want := make([]float64, len(f.cands))
		for i, c := range f.cands {
			want[i] = f.st.EvalLACXor(c.a, c.b, c.inv, c.row)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 8; r++ {
					for i := range f.cands {
						c := f.cands[(i+g)%len(f.cands)]
						if got := f.st.EvalLACXor(c.a, c.b, c.inv, c.row); got != want[(i+g)%len(f.cands)] {
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
			t.Fatalf("%s: a concurrent EvalLACXor disagreed with the serial pass", k)
		}
	}
}

// BenchmarkEvalLAC scores one candidate with a dense 32-PO row over 8192
// patterns, per metric.
func BenchmarkEvalLAC(b *testing.B) {
	for _, kind := range []Kind{ER, MED, MSE, WCE} {
		b.Run(kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			nPO, words := 32, 128
			exact := randVecs(rng, nPO, words)
			st := NewState(kind, exact, UnsignedWeights(nPO), words*64)
			D := bitvec.NewWords(words)
			for w := range D {
				D[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			row := &cpm.Row{}
			for o := 0; o < nPO; o++ {
				p := bitvec.NewWords(words)
				for w := range p {
					p[w] = rng.Uint64() & rng.Uint64()
				}
				row.POs = append(row.POs, int32(o))
				row.Diffs = append(row.Diffs, p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.EvalLAC(D, row)
			}
		})
	}
}
