package sim

import (
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
)

// buildXorChain returns a graph computing a chain of XORs plus some sharing.
func buildSmall() (*aig.Graph, []aig.Lit) {
	g := aig.New("small")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.Xor(a, b)
	y := g.And(x, c)
	z := g.Or(y, a)
	g.AddPO(z, "z")
	g.AddPO(x.Not(), "nx")
	return g, []aig.Lit{a, b, c, x, y, z}
}

// refEval computes node values for one pattern by direct interpretation.
func refEval(g *aig.Graph, piVals map[int32]bool) map[int32]bool {
	val := map[int32]bool{0: false}
	for _, v := range g.PIs() {
		val[v] = piVals[v]
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		val[v] = (val[f0.Var()] != f0.IsCompl()) && (val[f1.Var()] != f1.IsCompl())
	}
	return val
}

func TestSimMatchesReference(t *testing.T) {
	g, _ := buildSmall()
	s := New(g, Options{Patterns: 256, Seed: 42})
	for p := 0; p < s.Patterns(); p++ {
		piVals := map[int32]bool{}
		for _, v := range g.PIs() {
			piVals[v] = s.Val(v).Get(p)
		}
		ref := refEval(g, piVals)
		for _, v := range g.Topo() {
			if g.Type(v) == aig.TypeAnd && s.Val(v).Get(p) != ref[v] {
				t.Fatalf("pattern %d node %d: sim=%v ref=%v", p, v, s.Val(v).Get(p), ref[v])
			}
		}
	}
}

func TestExhaustiveDistribution(t *testing.T) {
	g := aig.New("ex")
	var pis []aig.Lit
	for i := 0; i < 8; i++ {
		pis = append(pis, g.AddPI(""))
	}
	all := pis[0]
	for _, p := range pis[1:] {
		all = g.And(all, p)
	}
	g.AddPO(all, "and8")
	s := New(g, Options{Patterns: 256})
	if s.Patterns() != 256 {
		t.Fatalf("Patterns = %d", s.Patterns())
	}
	// Input j of pattern i must equal bit j of i.
	for p := 0; p < 256; p++ {
		for j, l := range pis {
			want := p>>uint(j)&1 == 1
			if s.Val(l.Var()).Get(p) != want {
				t.Fatalf("pattern %d input %d: got %v want %v", p, j, s.Val(l.Var()).Get(p), want)
			}
		}
	}
	// AND of all inputs true only for pattern 255.
	out := bitvec.NewWords(s.Words())
	s.POVal(0, out)
	if out.Count() != 1 || !out.Get(255) {
		t.Fatalf("and8 wrong: count=%d", out.Count())
	}
}

// New enumerates exactly when the distribution is uniform and 2^PIs fits
// the budget: at the boundary and above it the 2^5 patterns are the input
// space, one below it (and with input probabilities) the run samples whole
// words. Uniform means len(Probs) == 0, so an empty non-nil Probs
// enumerates too.
func TestNewEnumeratesWhenSpaceFits(t *testing.T) {
	g := aig.New("five")
	var pis []aig.Lit
	for i := 0; i < 5; i++ {
		pis = append(pis, g.AddPI(""))
	}
	g.AddPO(g.And(pis[0], pis[4]), "y")
	for _, c := range []struct {
		name     string
		opt      Options
		enum     bool
		patterns int
	}{
		{"boundary", Options{Patterns: 32}, true, 32},
		{"budget above", Options{Patterns: 1000, Seed: 9}, true, 32},
		{"default budget", Options{}, true, 32},
		{"budget below", Options{Patterns: 31}, false, 64},
		{"empty probs", Options{Patterns: 32, Probs: []float64{}}, true, 32},
		{"biased", Options{Patterns: 1024, Probs: []float64{0.5}}, false, 1024},
		{"biased boundary", Options{Patterns: 32, Probs: []float64{0.5}}, false, 64},
	} {
		if Enumerates(g.NumPIs(), c.opt) != c.enum {
			t.Errorf("%s: Enumerates %v, want %v", c.name, !c.enum, c.enum)
		}
		s := New(g, c.opt)
		if s.Patterns() != c.patterns {
			t.Errorf("%s: %d patterns, want %d", c.name, s.Patterns(), c.patterns)
		}
		if !c.enum {
			continue
		}
		for p := 0; p < 32; p++ {
			for j, v := range g.PIs() {
				if s.Val(v).Get(p) != (p>>j&1 == 1) {
					t.Fatalf("%s: pattern %d input %d is not bit %d of the index", c.name, p, j, j)
				}
			}
		}
	}
	if Enumerates(31, Options{Patterns: 1 << 40}) {
		t.Error("31 inputs enumerated")
	}
}

func TestLitValComplement(t *testing.T) {
	g, _ := buildSmall()
	s := New(g, Options{Patterns: 128, Seed: 1})
	a := g.PIs()[0]
	dst := bitvec.NewWords(s.Words())
	s.LitVal(aig.MakeLit(a, true), dst)
	x := bitvec.NewWords(s.Words())
	x.Xor(dst, s.Val(a))
	if x.Count() != s.Patterns() {
		t.Errorf("complemented literal must differ on every pattern: %d/%d", x.Count(), s.Patterns())
	}
}

func TestThreadedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < 12; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < 400; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 8; i++ {
		g.AddPO(lits[len(lits)-1-i], "")
	}
	s1 := New(g, Options{Patterns: 4096, Seed: 9, Threads: 1})
	s4 := New(g, Options{Patterns: 4096, Seed: 9, Threads: 4})
	for v := int32(0); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) && !s1.Val(v).Equal(s4.Val(v)) {
			t.Fatalf("node %d differs between serial and threaded", v)
		}
	}
}

func TestIncrementalResim(t *testing.T) {
	g, _ := buildSmall()
	s := New(g, Options{Patterns: 512, Seed: 5})

	// Replace the XOR root x with constant true and resimulate incrementally.
	var xVar int32 = -1
	for v := int32(1); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) && g.NumFanouts(v) >= 1 {
			// find the node driving PO "nx" (the xor output)
			if g.PO(1).Var() == v {
				xVar = v
			}
		}
	}
	if xVar < 0 {
		t.Fatal("could not locate xor node")
	}
	cs := g.ReplaceWithLit(xVar, aig.True)
	s.ResimulateFrom(cs.Rewired)

	// Compare against a fresh full simulation with identical PI values.
	ref := &Sim{}
	_ = ref
	full := New(g, Options{Patterns: 512, Seed: 5})
	for v := int32(0); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) && !s.Val(v).Equal(full.Val(v)) {
			t.Fatalf("incremental resim diverges at node %d", v)
		}
	}
}

// Property-style test: a long random sequence of replacements with
// incremental resimulation always matches full resimulation.
func TestIncrementalResimRandomSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := aig.New("rand")
		var lits []aig.Lit
		for i := 0; i < 8; i++ {
			lits = append(lits, g.AddPI(""))
		}
		for i := 0; i < 120; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		for i := 0; i < 6; i++ {
			g.AddPO(lits[len(lits)-1-rng.Intn(5)], "")
		}
		s := New(g, Options{Patterns: 256, Seed: int64(trial)})
		for step := 0; step < 15; step++ {
			var cand []int32
			for v := int32(1); v <= g.MaxVar(); v++ {
				if g.IsAnd(v) {
					cand = append(cand, v)
				}
			}
			if len(cand) == 0 {
				break
			}
			v := cand[rng.Intn(len(cand))]
			var repl aig.Lit
			switch rng.Intn(3) {
			case 0:
				repl = aig.False
			case 1:
				repl = aig.True
			default:
				w := g.PIs()[rng.Intn(g.NumPIs())]
				repl = aig.MakeLit(w, rng.Intn(2) == 1)
			}
			cs := g.ReplaceWithLit(v, repl)
			s.ResimulateFrom(cs.Rewired)
			full := New(g, Options{Patterns: 256, Seed: int64(trial)})
			// Compare only PO-reachable nodes: dangling-but-live nodes
			// (possible in this synthetic graph) carry no defined value.
			for _, w := range g.Topo() {
				if g.IsAnd(w) && !s.Val(w).Equal(full.Val(w)) {
					t.Fatalf("trial %d step %d: node %d diverged", trial, step, w)
				}
			}
		}
	}
}

func BenchmarkFullResim(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := aig.New("bench")
	var lits []aig.Lit
	for i := 0; i < 32; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < 2000; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		bb := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, bb))
	}
	for i := 0; i < 16; i++ {
		g.AddPO(lits[len(lits)-1-i], "")
	}
	s := New(g, Options{Patterns: 8192, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Resimulate()
	}
}
