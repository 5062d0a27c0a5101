package aig

import (
	"math/rand"
	"testing"
)

func TestLit(t *testing.T) {
	l := MakeLit(5, false)
	if l.Var() != 5 || l.IsCompl() {
		t.Fatalf("MakeLit(5,false) = %v", l)
	}
	n := l.Not()
	if n.Var() != 5 || !n.IsCompl() {
		t.Fatalf("Not() = %v", n)
	}
	if l.NotIf(false) != l || l.NotIf(true) != n {
		t.Fatal("NotIf wrong")
	}
	if False.Not() != True || True.Not() != False {
		t.Fatal("const complement wrong")
	}
	if l.String() != "5" || n.String() != "!5" {
		t.Fatalf("String: %s %s", l, n)
	}
}

func TestAndSimplifications(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	if g.And(a, False) != False || g.And(False, b) != False {
		t.Error("x∧0 must be 0")
	}
	if g.And(a, True) != a || g.And(True, b) != b {
		t.Error("x∧1 must be x")
	}
	if g.And(a, a) != a {
		t.Error("x∧x must be x")
	}
	if g.And(a, a.Not()) != False {
		t.Error("x∧¬x must be 0")
	}
	if g.NumAnds() != 0 {
		t.Errorf("trivial cases must not create nodes, have %d", g.NumAnds())
	}
	ab := g.And(a, b)
	if g.NumAnds() != 1 {
		t.Fatalf("NumAnds = %d", g.NumAnds())
	}
	if g.And(b, a) != ab {
		t.Error("structural hashing must canonicalise operand order")
	}
	if g.NumAnds() != 1 {
		t.Errorf("strash failed: NumAnds = %d", g.NumAnds())
	}
}

func TestDerivedGates(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	g.AddPO(g.Or(a, b), "or")
	g.AddPO(g.Xor(a, b), "xor")
	g.AddPO(g.Xnor(a, b), "xnor")
	g.AddPO(g.Mux(a, b, c), "mux")
	g.AddPO(g.Maj(a, b, c), "maj")
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	// Exhaustive functional check via direct evaluation.
	eval := evalAll(g)
	for in := 0; in < 8; in++ {
		av, bv, cv := in&1 != 0, in&2 != 0, in&4 != 0
		want := []bool{
			av || bv,
			av != bv,
			av == bv,
			(av && bv) || (!av && cv),
			(av && bv) || (av && cv) || (bv && cv),
		}
		got := eval([]bool{av, bv, cv})
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("input %03b output %s = %v, want %v", in, g.POName(i), got[i], want[i])
			}
		}
	}
}

// evalAll returns an evaluator computing PO values for a PI assignment.
func evalAll(g *Graph) func(pi []bool) []bool {
	return func(pi []bool) []bool {
		val := make([]bool, g.NumVars())
		for i, v := range g.PIs() {
			val[v] = pi[i]
		}
		litVal := func(l Lit) bool { return val[l.Var()] != l.IsCompl() }
		for _, v := range g.Topo() {
			if g.Type(v) != TypeAnd {
				continue
			}
			f0, f1 := g.Fanins(v)
			val[v] = litVal(f0) && litVal(f1)
		}
		out := make([]bool, g.NumPOs())
		for i, po := range g.POs() {
			out[i] = litVal(po)
		}
		return out
	}
}

func TestTopoOrder(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(x, y.Not())
	g.AddPO(z, "z")
	order := g.Topo()
	pos := map[int32]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range order {
		if g.Type(v) != TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		if pos[f0.Var()] >= pos[v] || pos[f1.Var()] >= pos[v] {
			t.Fatalf("topo violation at node %d", v)
		}
	}
	if len(order) != 1+3+3 {
		t.Errorf("topo order has %d entries, want 7", len(order))
	}
	_ = y
}

func TestLevelsDepth(t *testing.T) {
	g := New("t")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	y := g.And(x, a)
	z := g.And(y, b)
	g.AddPO(z, "z")
	lv := g.Levels()
	if lv[x.Var()] != 1 || lv[y.Var()] != 2 || lv[z.Var()] != 3 {
		t.Errorf("levels: %d %d %d", lv[x.Var()], lv[y.Var()], lv[z.Var()])
	}
	if g.Depth() != 3 {
		t.Errorf("Depth = %d", g.Depth())
	}
}

func TestCones(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(x, a)
	g.AddPO(y, "y")
	g.AddPO(z, "z")

	tfi := map[int32]bool{}
	for _, v := range g.TFICone([]int32{y.Var()}) {
		tfi[v] = true
	}
	for _, v := range []int32{y.Var(), x.Var(), a.Var(), b.Var(), c.Var()} {
		if !tfi[v] {
			t.Errorf("TFI(y) missing %d", v)
		}
	}
	if tfi[z.Var()] {
		t.Error("TFI(y) must not contain z")
	}

	if !g.InTFO(x.Var(), y.Var()) || !g.InTFO(x.Var(), z.Var()) || g.InTFO(y.Var(), x.Var()) {
		t.Error("InTFO wrong")
	}
	if !g.InTFO(x.Var(), x.Var()) {
		t.Error("InTFO must include the node itself")
	}
}

func TestMFFC(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b) // shared: feeds y and external PO
	y := g.And(x, c) // in MFFC of z
	z := g.And(y, b) // root
	g.AddPO(z, "z")
	g.AddPO(x, "xo") // x referenced by PO: not in MFFC of z
	mffc := g.MFFC(z.Var())
	in := map[int32]bool{}
	for _, v := range mffc {
		in[v] = true
	}
	if !in[z.Var()] || !in[y.Var()] {
		t.Errorf("MFFC(z) = %v, want z and y", mffc)
	}
	if in[x.Var()] {
		t.Error("x must not be in MFFC(z): it drives a PO")
	}
	if len(mffc) != 2 {
		t.Errorf("MFFC size = %d, want 2", len(mffc))
	}
}

func TestReplaceWithLitConst(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	cs := g.ReplaceWithLit(x.Var(), False)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	// x is removed (its only reader was rewired), y now reads const.
	if !g.IsDead(x.Var()) {
		t.Error("x should be dead after replacement")
	}
	found := false
	for _, v := range cs.Removed {
		if v == x.Var() {
			found = true
		}
	}
	if !found {
		t.Errorf("ChangeSet.Removed = %v, want to contain x", cs.Removed)
	}
	f0, f1 := g.Fanins(y.Var())
	if f0 != False && f1 != False {
		t.Error("y must now read constant false")
	}
	out := evalAll(g)([]bool{true, true, true})
	if out[0] {
		t.Error("output must be 0 after replacing x with const 0")
	}
}

func TestReplaceWithLitSASIMI(t *testing.T) {
	// Replace node x with PI c (complemented), keeping edge polarities.
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x.Not(), c)
	g.AddPO(y, "y")
	g.AddPO(x, "xo")
	cs := g.ReplaceWithLit(x.Var(), c.Not())
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if len(cs.Removed) != 1 || cs.Removed[0] != x.Var() {
		t.Errorf("Removed = %v", cs.Removed)
	}
	// y = ¬x ∧ c with x := ¬c  →  y = c ∧ c = c ; PO xo = ¬c.
	for in := 0; in < 8; in++ {
		av, bv, cv := in&1 != 0, in&2 != 0, in&4 != 0
		out := evalAll(g)([]bool{av, bv, cv})
		if out[0] != cv {
			t.Errorf("y(%v) = %v, want %v", in, out[0], cv)
		}
		if out[1] != !cv {
			t.Errorf("xo(%v) = %v, want %v", in, out[1], !cv)
		}
	}
	// The replacement literal's variable gained fanouts → in S_c.
	inFc := false
	for _, v := range cs.FanoutChanged {
		if v == c.Var() {
			inFc = true
		}
	}
	if !inFc {
		t.Errorf("FanoutChanged = %v, want to contain c", cs.FanoutChanged)
	}
}

func TestReplaceRemovesMFFC(t *testing.T) {
	g := New("t")
	a, b, c, d := g.AddPI("a"), g.AddPI("b"), g.AddPI("c"), g.AddPI("d")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(y, d)
	g.AddPO(z, "z")
	before := g.NumAnds()
	cs := g.ReplaceWithLit(z.Var(), a)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if g.NumAnds() != before-3 {
		t.Errorf("NumAnds = %d, want %d", g.NumAnds(), before-3)
	}
	if len(cs.Removed) != 3 {
		t.Errorf("Removed = %v, want 3 nodes", cs.Removed)
	}
	if g.PO(0) != a {
		t.Errorf("PO should be rewired to a, got %v", g.PO(0))
	}
}

func TestStrashConsistencyAfterReplace(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	g.ReplaceWithLit(x.Var(), a)
	// y is now AND(a, c); requesting AND(a, c) must reuse y, and the stale
	// AND(x, c) key must not resolve to anything live.
	l := g.And(a, c)
	if l.Var() != y.Var() {
		t.Errorf("And(a,c) = %v, want reuse of y = %v", l, y)
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	g := New("t")
	a, b := g.AddPI("a"), g.AddPI("b")
	x := g.And(a, b)
	g.AddPO(x, "x")
	c := g.Clone()
	// Mutate the clone; the original must be untouched.
	c.ReplaceWithLit(x.Var(), False)
	if g.IsDead(x.Var()) {
		t.Error("mutating clone affected original")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepConstProp(t *testing.T) {
	g := New("t")
	a, b, c := g.AddPI("a"), g.AddPI("b"), g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	g.ReplaceWithLit(x.Var(), True) // y becomes AND(1, c) ≡ c
	ng := g.Sweep()
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	if ng.NumAnds() != 0 {
		t.Errorf("sweep should remove buffer AND, have %d", ng.NumAnds())
	}
	out := evalAll(ng)([]bool{false, false, true})
	if !out[0] {
		t.Error("swept circuit must compute y = c")
	}
}

// randomGraph builds a random acyclic AIG for property tests.
func randomGraph(rng *rand.Rand, nPIs, nAnds, nPOs int) *Graph {
	g := New("rand")
	lits := []Lit{}
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < nPOs; i++ {
		g.AddPO(lits[len(lits)-1-rng.Intn(min(8, len(lits)))].NotIf(rng.Intn(2) == 1), "")
	}
	return g
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: random replacement sequences keep every structural invariant.
func TestQuickRandomReplacements(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 5, 40, 4)
		if err := g.Check(); err != nil {
			t.Fatalf("trial %d initial: %v", trial, err)
		}
		for step := 0; step < 10; step++ {
			// Pick a random live AND node.
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
			// Pick a replacement not in TFO(v).
			var repl []Lit
			for _, w := range g.PIs() {
				repl = append(repl, MakeLit(w, rng.Intn(2) == 1))
			}
			for _, w := range cand {
				if w != v && !g.InTFO(v, w) {
					repl = append(repl, MakeLit(w, rng.Intn(2) == 1))
				}
			}
			repl = append(repl, False, True)
			l := repl[rng.Intn(len(repl))]
			mffc := g.MFFC(v)
			inMFFC := map[int32]bool{}
			for _, m := range mffc {
				inMFFC[m] = true
			}
			cs := g.ReplaceWithLit(v, l)
			if err := g.Check(); err != nil {
				t.Fatalf("trial %d step %d after replace %d<-%v: %v", trial, step, v, l, err)
			}
			if len(cs.Removed) < 1 {
				t.Fatalf("replacement must remove at least the target")
			}
			if inMFFC[l.Var()] {
				// The replacement keeps part of the MFFC alive.
				if len(cs.Removed) > len(mffc) {
					t.Fatalf("removed %d nodes, MFFC bound %d", len(cs.Removed), len(mffc))
				}
			} else if len(cs.Removed) != len(mffc) {
				t.Fatalf("removed %d nodes, MFFC predicted %d", len(cs.Removed), len(mffc))
			}
		}
	}
}

// Property: Sweep preserves functionality on random graphs.
func TestQuickSweepPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 6, 30, 5)
		ng := g.Sweep()
		if err := ng.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev1, ev2 := evalAll(g), evalAll(ng)
		for in := 0; in < 64; in++ {
			pi := make([]bool, 6)
			for i := range pi {
				pi[i] = in>>i&1 != 0
			}
			o1, o2 := ev1(pi), ev2(pi)
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("trial %d input %06b PO %d: %v vs %v", trial, in, i, o1[i], o2[i])
				}
			}
		}
	}
}
