package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/gen"
)

// cnfSolver is the surface the kernel and refSolver share.
type cnfSolver interface {
	NewVar() int
	AddClause(lits ...Lit) bool
	Solve(assumptions ...Lit) Status
	Model(v int) bool
}

// instance builds one CNF into a solver and returns the assumptions to
// solve under. It is called once per solver, so it must be deterministic.
type instance func(s cnfSolver) []Lit

// pigeonholeInstance is PHP(n): n+1 pigeons in n holes, classically
// UNSAT and a good stress for clause learning.
func pigeonholeInstance(n int) instance {
	return func(s cnfSolver) []Lit {
		vars := make([][]int, n+1)
		for p := range vars {
			vars[p] = make([]int, n)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			lits := make([]Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = MkLit(vars[p][h], false)
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
				}
			}
		}
		return nil
	}
}

// random3SAT draws nVars variables and round(4.26·nVars) 3-literal
// clauses, plus nAssume random assumption literals.
func random3SAT(rng *rand.Rand, nVars, nAssume int) instance {
	cnf := make([][]Lit, int(4.26*float64(nVars)+0.5))
	for i := range cnf {
		cnf[i] = make([]Lit, 3)
		for j := range cnf[i] {
			cnf[i][j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
		}
	}
	assume := make([]Lit, nAssume)
	for i := range assume {
		assume[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
	}
	return func(s cnfSolver) []Lit {
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range cnf {
			if !s.AddClause(append([]Lit(nil), c...)...) {
				break
			}
		}
		return append([]Lit(nil), assume...)
	}
}

// evalWord evaluates g on the input assignment packed in x (bit i is PI i)
// and returns its PO vector as an unsigned LSB-first integer.
func evalWord(g *aig.Graph, x uint64) uint64 {
	val := make([]bool, g.NumVars())
	for i, v := range g.PIs() {
		val[v] = x>>uint(i)&1 == 1
	}
	lit := func(l aig.Lit) bool { return val[l.Var()] != l.IsCompl() }
	for _, v := range g.Topo() {
		if g.Type(v) == aig.TypeAnd {
			f0, f1 := g.Fanins(v)
			val[v] = lit(f0) && lit(f1)
		}
	}
	var out uint64
	for o, po := range g.POs() {
		if lit(po) {
			out |= 1 << uint(o)
		}
	}
	return out
}

// exhaustiveWCE is max |orig(x) − approx(x)| over every input.
func exhaustiveWCE(orig, approx *aig.Graph) uint64 {
	var w uint64
	for x := uint64(0); x < 1<<uint(orig.NumPIs()); x++ {
		a, b := evalWord(orig, x), evalWord(approx, x)
		d := a - b
		if b > a {
			d = b - a
		}
		w = max(w, d)
	}
	return w
}

// constLACs returns a copy of g with n random live AND nodes replaced by
// random constants.
func constLACs(rng *rand.Rand, g *aig.Graph, n int) *aig.Graph {
	g = g.Clone()
	for i := 0; i < n; i++ {
		var ands []int32
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				ands = append(ands, v)
			}
		}
		if len(ands) == 0 {
			break
		}
		c := aig.False
		if rng.Intn(2) == 1 {
			c = c.Not()
		}
		g.ReplaceWithLit(ands[rng.Intn(len(ands))], c)
	}
	return g
}

// wceMiter is the certification instance |orig − approx| > t: both
// circuits and the comparator built with gen.Builder, Tseitin-encoded, the
// violation output asserted.
func wceMiter(orig, approx *aig.Graph, t uint64) instance {
	m := aig.New("wce-miter")
	b := &gen.Builder{G: m}
	pis := make([]aig.Lit, orig.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI(fmt.Sprintf("x%d", i))
	}
	ao := gen.Word(aig.AppendGraph(m, orig, pis))
	aa := gen.Word(aig.AppendGraph(m, approx, pis))
	d0, borrow := b.Sub(ao, aa)
	d1, _ := b.Sub(aa, ao)
	abs := b.Mux(borrow, d1, d0)
	m.AddPO(b.LtU(b.Const(t, len(abs)), abs), "violation")
	return func(s cnfSolver) []Lit {
		lits := make([]Lit, m.NumVars())
		cf := s.NewVar()
		s.AddClause(MkLit(cf, true))
		lits[0] = MkLit(cf, false)
		for _, v := range m.PIs() {
			lits[v] = MkLit(s.NewVar(), false)
		}
		conv := func(l aig.Lit) Lit {
			if l.IsCompl() {
				return lits[l.Var()].Not()
			}
			return lits[l.Var()]
		}
		for _, v := range m.Topo() {
			if m.Type(v) != aig.TypeAnd {
				continue
			}
			f0, f1 := m.Fanins(v)
			a, c := conv(f0), conv(f1)
			y := MkLit(s.NewVar(), false)
			s.AddClause(y.Not(), a)
			s.AddClause(y.Not(), c)
			s.AddClause(y, a.Not(), c.Not())
			lits[v] = y
		}
		s.AddClause(conv(m.PO(0)))
		return nil
	}
}

// wceMiters draws n constant-LAC approximations of orig and returns the
// miters at their exact WCE (UNSAT) and one below it (SAT).
func wceMiters(rng *rand.Rand, orig *aig.Graph, n int) map[string]instance {
	out := make(map[string]instance)
	for i := 0; i < n; i++ {
		approx := constLACs(rng, orig, 1+rng.Intn(4))
		w := exhaustiveWCE(orig, approx)
		out[fmt.Sprintf("%s/%d/t=%d", orig.Name, i, w)] = wceMiter(orig, approx, w)
		if w > 0 {
			t := uint64(rng.Int63n(int64(w)))
			out[fmt.Sprintf("%s/%d/t=%d", orig.Name, i, t)] = wceMiter(orig, approx, t)
		}
	}
	return out
}

// TestKernelMatchesReference holds the kernel to the search of the
// original solver: on every instance the status, the conflict count and
// every model bit must equal refSolver's. Each instance also runs with
// both solvers' activity increment started at 1e98, so the 1e-100 rescale
// (and the heap rebuild after it) happens within the first conflicts.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := map[string]instance{}
	for n := 5; n <= 7; n++ {
		cases[fmt.Sprintf("php%d", n)] = pigeonholeInstance(n)
	}
	for i := 0; i < 200; i++ {
		nVars := 60 + rng.Intn(61)
		nAssume := 0
		if i%4 == 0 {
			nAssume = 1 + rng.Intn(5)
		}
		cases[fmt.Sprintf("3sat/%d/v%d/a%d", i, nVars, nAssume)] = random3SAT(rng, nVars, nAssume)
	}
	for name, inst := range wceMiters(rng, gen.MultU(4, 4), 6) {
		cases[name] = inst
	}
	for name, inst := range wceMiters(rng, gen.MAC(4), 4) {
		cases[name] = inst
	}

	var sat, unsat, confs int64
	for name, inst := range cases {
		for _, varInc := range []float64{1, 1e98} {
			ks, rs := New(), newRef()
			ks.varInc, rs.varInc = varInc, varInc
			got, want := ks.Solve(inst(ks)...), rs.Solve(inst(rs)...)
			if got != want || ks.conflicts != rs.conflicts {
				t.Fatalf("%s (varInc %g): kernel %v after %d conflicts, reference %v after %d",
					name, varInc, got, ks.conflicts, want, rs.conflicts)
			}
			confs += ks.conflicts
			if got != Sat {
				unsat++
				continue
			}
			sat++
			for v := 0; v < ks.NumVars(); v++ {
				if ks.Model(v) != rs.Model(v) {
					t.Fatalf("%s (varInc %g): model differs at variable %d", name, varInc, v)
				}
			}
			if !ks.VerifyModel() {
				t.Fatalf("%s (varInc %g): model does not satisfy the clauses", name, varInc)
			}
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate instance mix: %d SAT, %d UNSAT", sat, unsat)
	}
	t.Logf("%d instances, %d SAT and %d UNSAT solves, %d conflicts", len(cases), sat, unsat, confs)
}

// TestHeapOrderAfterRescale: the 1e-100 rescale can round distinct
// activities to equal ones (here tiny ones underflow to 0), and the
// decision heap must then follow the index tie-break of the first-max
// scan it replaced. The reference differential rarely reaches that case.
func TestHeapOrderAfterRescale(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(3))
	s := New()
	for v := 0; v < n; v++ {
		s.NewVar()
	}
	for v := 0; v < n; v++ {
		s.varInc = rng.Float64() * 1e-250
		s.bumpVar(v)
	}
	s.varInc = 2e100
	s.bumpVar(n / 2) // rescales: every other activity becomes 0
	for k := 0; k < n; k++ {
		want, wantAct := -1, -1.0
		for v := 0; v < n; v++ {
			if s.vals[MkLit(v, false)] == valUnassigned && s.activity[v] > wantAct {
				want, wantAct = v, s.activity[v]
			}
		}
		got := s.pickBranch()
		if got.Var() != want {
			t.Fatalf("pick %d: heap gives variable %d, the scan %d", k, got.Var(), want)
		}
		s.enqueue(got, crefUndef)
	}
}

// BenchmarkSolve times the kernel on a classic UNSAT stress and on one
// WCE certification miter of the size the WCE flow solves.
func BenchmarkSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	orig := gen.MAC(4)
	approx := constLACs(rng, orig, 3)
	benches := []struct {
		name string
		inst instance
	}{
		{"pigeonhole7", pigeonholeInstance(7)},
		{"wce-mac4", wceMiter(orig, approx, exhaustiveWCE(orig, approx))},
	}
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				s.Solve(bc.inst(s)...)
			}
		})
	}
}
