package cut

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"dpals/internal/aig"
)

// fig2Graph reproduces the structure of the paper's Fig. 2:
//
//	a → b → d → O1
//	a → c ↘
//	b,c → e → O2
//	    e → f(→O3)  (e also feeds O2 directly; f feeds O3)
//
// We model it with AND nodes; the logic functions are irrelevant for cut
// structure, only the edges matter.
func fig2Graph(t *testing.T) (g *aig.Graph, a, b, c, d, e, f int32) {
	g = aig.New("fig2")
	p := g.AddPI("p")
	q := g.AddPI("q")
	r := g.AddPI("r")
	al := g.And(p, q)
	bl := g.And(al, r)
	cl := g.And(al, r.Not())
	dl := g.And(bl, p.Not())
	el := g.And(bl, cl)
	fl := g.And(el, q.Not())
	g.AddPO(dl, "O1")
	g.AddPO(el, "O2")
	g.AddPO(fl, "O3")
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	return g, al.Var(), bl.Var(), cl.Var(), dl.Var(), el.Var(), fl.Var()
}

func sortedCut(s *Set, v int32) []int32 {
	c := append([]int32(nil), s.Cut(v)...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func TestFig2DisjointCut(t *testing.T) {
	g, a, b, c, d, e, _ := fig2Graph(t)
	s, _ := NewSet(context.Background(), g, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: the closest disjoint cut of a is {d, e}: d covers O1, e covers
	// O2 and O3 (b and c conflict — both reach e).
	got := sortedCut(s, a)
	want := []int32{d, e}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("cut(a) = %v, want {d=%d, e=%d}", got, d, e)
	}
	// b reaches O1 (via d) and O2,O3 (via e): cut {d, e} as well.
	gotB := sortedCut(s, b)
	if len(gotB) != 2 || gotB[0] != want[0] || gotB[1] != want[1] {
		t.Errorf("cut(b) = %v, want {d, e}", gotB)
	}
	// c reaches only O2/O3 through e: cut {e}.
	gotC := s.Cut(c)
	if len(gotC) != 1 || gotC[0] != e {
		t.Errorf("cut(c) = %v, want {e}", gotC)
	}
	// e drives O2 directly and feeds f: cut {sink(O2), f}.
	gotE := sortedCut(s, e)
	if len(gotE) != 2 {
		t.Errorf("cut(e) = %v, want sink(O2) and f", gotE)
	}
	hasSink := false
	for _, el := range gotE {
		if IsSink(el) && SinkPO(el) == 1 {
			hasSink = true
		}
	}
	if !hasSink {
		t.Errorf("cut(e) = %v must contain sink(O2)", gotE)
	}
	// Reachability: a reaches all three POs.
	if s.Reach(a).Count() != 3 {
		t.Errorf("reach(a) = %d POs, want 3", s.Reach(a).Count())
	}
}

func TestSingleFanoutCut(t *testing.T) {
	g := aig.New("chain")
	p, q := g.AddPI("p"), g.AddPI("q")
	x := g.And(p, q)
	y := g.And(x, p.Not())
	z := g.And(y, q.Not())
	g.AddPO(z, "o")
	s, _ := NewSet(context.Background(), g, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := s.Cut(x.Var()); len(c) != 1 || c[0] != y.Var() {
		t.Errorf("cut(x) = %v, want {y}", c)
	}
	if c := s.Cut(z.Var()); len(c) != 1 || !IsSink(c[0]) || SinkPO(c[0]) != 0 {
		t.Errorf("cut(z) = %v, want {sink(0)}", c)
	}
}

func TestSinkEncoding(t *testing.T) {
	for o := 0; o < 100; o++ {
		e := EncodeSink(o)
		if !IsSink(e) || SinkPO(e) != o {
			t.Fatalf("sink roundtrip failed for %d: e=%d po=%d", o, e, SinkPO(e))
		}
	}
	if IsSink(0) || IsSink(42) {
		t.Error("non-negative elements must not be sinks")
	}
}

// TestIncrementalMatchesFresh replays the paper's Fig. 5 scenario and richer
// random sequences: after every replacement, UpdateAfter must produce
// exactly the cuts a fresh NewSet computes.
func TestIncrementalFig5(t *testing.T) {
	// Fig. 5: node d replaces node c; the cut of nodes a, b, d must update.
	g := aig.New("fig5")
	p, q, r, w := g.AddPI("p"), g.AddPI("q"), g.AddPI("r"), g.AddPI("w")
	al := g.And(p, q)
	bl := g.And(al, r)
	dl := g.And(al, w)
	cl := g.And(bl, dl) // c reads b and d
	fl := g.And(cl, p.Not())
	gl := g.And(bl, fl)
	hl := g.And(dl, w.Not())
	il := g.And(fl, hl)
	g.AddPO(gl, "O1")
	g.AddPO(il, "O2")
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSet(context.Background(), g, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cs := g.ReplaceWithLit(cl.Var(), dl)
	s.UpdateAfter(cs)
	if err := s.Validate(); err != nil {
		t.Fatalf("after incremental update: %v", err)
	}
	fresh, _ := NewSet(context.Background(), g, 1)
	for _, v := range g.Topo() {
		if !g.IsAnd(v) {
			continue
		}
		a1, a2 := sortedCut(s, v), sortedCut(fresh, v)
		if len(a1) != len(a2) {
			t.Fatalf("node %d cut mismatch: %v vs %v", v, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("node %d cut mismatch: %v vs %v", v, a1, a2)
			}
		}
	}
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
		g.AddPO(lits[len(lits)-1-rng.Intn(min(10, len(lits)))].NotIf(rng.Intn(2) == 1), "")
	}
	return g.Sweep() // remove dangling nodes so every live node reaches a PO
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestIncrementalRemovedMFFCTransitive is a regression for cuts invalidated
// transitively by a removed MFFC: node c's cut contains m, three edges away;
// replacing t with a constant removes MFFC(t) = {t, m, x, y, k}, and the
// incremental update must repair cut(c) even though c is not adjacent to t.
//
//	c = p∧q ── b = c∧r ──┬─ x = b∧¬p ──┐
//	      │              └─ z = b∧q → O2│
//	      └─ k = c∧¬r ──── y = k∧¬q ──┤
//	                                   m = x∧y ── t = m∧r → O1
func TestIncrementalRemovedMFFCTransitive(t *testing.T) {
	g := aig.New("mffc")
	p, q, r := g.AddPI("p"), g.AddPI("q"), g.AddPI("r")
	cl := g.And(p, q)
	bl := g.And(cl, r)
	kl := g.And(cl, r.Not())
	xl := g.And(bl, p.Not())
	yl := g.And(kl, q.Not())
	ml := g.And(xl, yl)
	tl := g.And(ml, r)
	zl := g.And(bl, q)
	g.AddPO(tl, "O1")
	g.AddPO(zl, "O2")
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSet(context.Background(), g, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Precondition of the scenario: the merge point m is in cut(c) — the
	// element the MFFC removal is about to delete.
	hasM := false
	for _, e := range s.Cut(cl.Var()) {
		if e == ml.Var() {
			hasM = true
		}
	}
	if !hasM {
		t.Fatalf("precondition: cut(c) = %v does not contain m=%d", s.Cut(cl.Var()), ml.Var())
	}

	cs := g.ReplaceWithLit(tl.Var(), aig.False)
	// The MFFC must actually cover the deep interior nodes.
	removed := map[int32]bool{}
	for _, v := range cs.Removed {
		removed[v] = true
	}
	for _, v := range []int32{tl.Var(), ml.Var(), xl.Var(), yl.Var(), kl.Var()} {
		if !removed[v] {
			t.Fatalf("node %d not removed with MFFC(t); removed = %v", v, cs.Removed)
		}
	}
	sv := s.UpdateAfter(cs)
	if err := s.Validate(); err != nil {
		t.Fatalf("after incremental update: %v", err)
	}
	// c must have been repaired (it is in S_v) and match a fresh build.
	inSv := false
	for _, v := range sv {
		if v == cl.Var() {
			inSv = true
		}
	}
	if !inSv {
		t.Fatalf("c=%d not in recomputed set %v", cl.Var(), sv)
	}
	fresh, _ := NewSet(context.Background(), g, 1)
	for _, w := range g.Topo() {
		if !g.IsAnd(w) {
			continue
		}
		a1, a2 := sortedCut(s, w), sortedCut(fresh, w)
		if len(a1) != len(a2) {
			t.Fatalf("node %d cut mismatch: %v vs %v", w, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("node %d cut mismatch: %v vs %v", w, a1, a2)
			}
		}
	}
}

func TestValidateRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 6, 60, 5)
		s, _ := NewSet(context.Background(), g, 1)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIncrementalRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 7, 80, 6)
		s, _ := NewSet(context.Background(), g, 1)
		for step := 0; step < 12; step++ {
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
			// Random legal replacement: a PI, a constant, or a non-TFO node.
			var repl aig.Lit
			switch rng.Intn(3) {
			case 0:
				repl = aig.False
			case 1:
				repl = aig.MakeLit(g.PIs()[rng.Intn(g.NumPIs())], rng.Intn(2) == 1)
			default:
				var ok []int32
				for _, w := range cand {
					if w != v && !g.InTFO(v, w) {
						ok = append(ok, w)
					}
				}
				if len(ok) == 0 {
					repl = aig.True
				} else {
					repl = aig.MakeLit(ok[rng.Intn(len(ok))], rng.Intn(2) == 1)
				}
			}
			cs := g.ReplaceWithLit(v, repl)
			s.UpdateAfter(cs)
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			// Cross-check against a fresh computation.
			fresh, _ := NewSet(context.Background(), g, 1)
			for _, w := range g.Topo() {
				if !g.IsAnd(w) {
					continue
				}
				a1, a2 := sortedCut(s, w), sortedCut(fresh, w)
				if len(a1) != len(a2) {
					t.Fatalf("trial %d step %d node %d: %v vs %v", trial, step, w, a1, a2)
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("trial %d step %d node %d: %v vs %v", trial, step, w, a1, a2)
					}
				}
			}
		}
	}
}

func BenchmarkNewSet(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 24, 2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSet(context.Background(), g, 1)
	}
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	base := randomGraph(rng, 24, 2000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := base.Clone()
		s, _ := NewSet(context.Background(), g, 1)
		var v int32 = -1
		for w := g.MaxVar(); w >= 1; w-- {
			if g.IsAnd(w) {
				v = w
				break
			}
		}
		cs := g.ReplaceWithLit(v, aig.False)
		b.StartTimer()
		s.UpdateAfter(cs)
	}
}

// TestNewSetParallelMatchesSerial checks the bit-identity contract of the
// parallel builder: for any thread count the cuts and reachability sets are
// exactly those of the serial pass, element order included.
func TestNewSetParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 6, 70, 5)
		serial, _ := NewSet(context.Background(), g, 1)
		for _, threads := range []int{2, 8} {
			par, _ := NewSet(context.Background(), g, threads)
			for v := int32(1); v <= g.MaxVar(); v++ {
				if !g.IsAnd(v) {
					continue
				}
				cs, cp := serial.Cut(v), par.Cut(v)
				if len(cs) != len(cp) {
					t.Fatalf("trial %d threads %d node %d: cut %v vs %v", trial, threads, v, cs, cp)
				}
				for i := range cs {
					if cs[i] != cp[i] {
						t.Fatalf("trial %d threads %d node %d: cut %v vs %v", trial, threads, v, cs, cp)
					}
				}
				rs, rp := serial.Reach(v), par.Reach(v)
				if (rs == nil) != (rp == nil) || (rs != nil && !rs.Equal(rp)) {
					t.Fatalf("trial %d threads %d node %d: reach mismatch", trial, threads, v)
				}
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("trial %d threads %d: %v", trial, threads, err)
			}
		}
	}
}
