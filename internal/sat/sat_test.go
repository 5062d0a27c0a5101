package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false)) {
		t.Fatal("unit clause rejected")
	}
	if s.Solve() != Sat {
		t.Fatal("single unit must be SAT")
	}
	if !s.Model(a) {
		t.Fatal("model wrong")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	ok := s.AddClause(MkLit(a, true))
	if ok && s.Solve() != Unsat {
		t.Fatal("x ∧ ¬x must be UNSAT")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// (¬x0∨x1)(¬x1∨x2)...(¬x9∨x10), x0 ⇒ all true.
	s := New()
	var vs []int
	for i := 0; i <= 10; i++ {
		vs = append(vs, s.NewVar())
	}
	for i := 0; i < 10; i++ {
		s.AddClause(MkLit(vs[i], true), MkLit(vs[i+1], false))
	}
	s.AddClause(MkLit(vs[0], false))
	if s.Solve() != Sat {
		t.Fatal("chain must be SAT")
	}
	for i := 0; i <= 10; i++ {
		if !s.Model(vs[i]) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a ∨ b
	if s.Solve(MkLit(a, true)) != Sat {
		t.Fatal("¬a assumption should leave b")
	}
	if !s.Model(b) {
		t.Fatal("b must be true under ¬a")
	}
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Fatal("¬a ∧ ¬b contradicts a∨b")
	}
	// Solver must remain usable after an UNSAT-under-assumptions call.
	if s.Solve() != Sat {
		t.Fatal("formula itself is satisfiable")
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := New()
		pigeonholeInstance(n)(s)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d) = %v, want UNSAT", n, got)
		}
	}
}

// bruteForce checks satisfiability of a small CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range cnf {
			sat := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := 3 + rng.Intn(nVars*5)
		var cnf [][]Lit
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		valid := true
		for c := 0; c < nClauses; c++ {
			var lits []Lit
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				lits = append(lits, MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
			}
			cnf = append(cnf, lits)
			if !s.AddClause(lits...) {
				valid = false
				break
			}
		}
		want := bruteForce(nVars, cnf)
		if !valid {
			if want {
				t.Fatalf("trial %d: solver says trivially UNSAT but brute force SAT", trial)
			}
			continue
		}
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver %v, brute force %v (%d vars, %d clauses)", trial, got, want, nVars, nClauses)
		}
		if got == Sat && !s.VerifyModel() {
			t.Fatalf("trial %d: reported model does not satisfy the clauses", trial)
		}
	}
}

func TestConflictLimit(t *testing.T) {
	s := New()
	pigeonholeInstance(7)(s)
	s.MaxConflicts = 10
	if got := s.Solve(); got != Unknown && got != Unsat {
		t.Fatalf("limited solve = %v", got)
	}
}

// TestSolveAfterSatHonoursAssumptions: a Sat result leaves its model on
// the trail for Model to read; the next call must start from level 0, not
// place its assumptions on top of that model. On a∨b the first call sets
// a=0, b=1; assuming ¬b must then give a=1, not a spurious Unsat.
func TestSolveAfterSatHonoursAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("a∨b must be SAT")
	}
	if s.Model(a) || !s.Model(b) {
		t.Fatalf("first model a=%v b=%v, want a=0 b=1", s.Model(a), s.Model(b))
	}
	if got := s.Solve(MkLit(b, true)); got != Sat {
		t.Fatalf("Solve(¬b) after Sat = %v, want Sat", got)
	}
	if !s.Model(a) || s.Model(b) {
		t.Fatalf("model under ¬b: a=%v b=%v, want a=1 b=0", s.Model(a), s.Model(b))
	}
}

// TestConflictBudgetPerCall: MaxConflicts is a budget per Solve call, so a
// reused solver's second budgeted call runs as many conflicts as its first.
func TestConflictBudgetPerCall(t *testing.T) {
	const budget = 50
	s := New()
	pigeonholeInstance(7)(s)
	s.MaxConflicts = budget
	for call := 1; call <= 2; call++ {
		before := s.conflicts
		if got := s.Solve(); got != Unknown {
			t.Fatalf("call %d: PHP(7) with %d conflicts = %v, want Unknown", call, budget, got)
		}
		if n := s.conflicts - before; n != budget {
			t.Fatalf("call %d ran %d conflicts, want the full budget %d", call, n, budget)
		}
	}
}
