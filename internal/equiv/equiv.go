// Package equiv provides formal (SAT-based) checks on synthesis results:
// combinational equivalence of two circuits, and worst-case-error
// certification of an approximate circuit — "for every input, the numeric
// output deviation is at most T" — via a miter construction and the CDCL
// solver in package sat. Monte-Carlo metrics (package metric) bound the
// average case; these checks bound the worst case, completing the
// verification story an approximate-synthesis release needs.
package equiv

import (
	"context"
	"errors"
	"fmt"

	"dpals/internal/aig"
	"dpals/internal/gen"
	"dpals/internal/sat"
)

// tseitin encodes graph g into s. piVars[i] is the solver variable of the
// i-th primary input; the returned slice holds one solver literal per
// primary output.
func tseitin(s *sat.Solver, g *aig.Graph, piVars []int) []sat.Lit {
	lits := make([]sat.Lit, g.NumVars())
	// Constant false: a dedicated variable forced to 0.
	cf := s.NewVar()
	s.AddClause(sat.MkLit(cf, true))
	lits[0] = sat.MkLit(cf, false)
	for i, v := range g.PIs() {
		lits[v] = sat.MkLit(piVars[i], false)
	}
	conv := func(l aig.Lit) sat.Lit {
		out := lits[l.Var()]
		if l.IsCompl() {
			out = out.Not()
		}
		return out
	}
	for _, v := range g.Topo() {
		if g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := g.Fanins(v)
		a, b := conv(f0), conv(f1)
		y := s.NewVar()
		yl := sat.MkLit(y, false)
		// y ↔ a∧b
		s.AddClause(yl.Not(), a)
		s.AddClause(yl.Not(), b)
		s.AddClause(yl, a.Not(), b.Not())
		lits[v] = yl
	}
	outs := make([]sat.Lit, g.NumPOs())
	for o, po := range g.POs() {
		outs[o] = conv(po)
	}
	return outs
}

// Equivalent checks combinational equivalence of a and b (identical PI/PO
// interfaces). On inequivalence it returns a counterexample input
// assignment (indexed like the PIs).
func Equivalent(a, b *aig.Graph) (bool, []bool, error) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false, nil, errors.New("equiv: interface mismatch")
	}
	s := sat.New()
	piVars := make([]int, a.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	oa := tseitin(s, a, piVars)
	ob := tseitin(s, b, piVars)
	// Miter: OR of output XORs must be satisfiable for inequivalence.
	var diffs []sat.Lit
	for o := range oa {
		x := s.NewVar()
		xl := sat.MkLit(x, false)
		// x ↔ (oa ⊕ ob)
		s.AddClause(xl.Not(), oa[o], ob[o])
		s.AddClause(xl.Not(), oa[o].Not(), ob[o].Not())
		s.AddClause(xl, oa[o].Not(), ob[o])
		s.AddClause(xl, oa[o], ob[o].Not())
		diffs = append(diffs, xl)
	}
	if !s.AddClause(diffs...) {
		return true, nil, nil // no satisfiable difference
	}
	switch s.Solve() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		cex := make([]bool, len(piVars))
		for i, v := range piVars {
			cex[i] = s.Model(v)
		}
		return false, cex, nil
	}
	return false, nil, errors.New("equiv: solver limit reached")
}

// buildWCEMiter constructs a single-output circuit that is 1 exactly when
// |orig(x) − approx(x)| > t, reading both output vectors as unsigned
// LSB-first integers. With freeThr the threshold is not the constant t but
// a word of K = orig.NumPOs() further primary inputs (LSB first) after
// orig's, so one miter serves every bound.
func buildWCEMiter(orig, approx *aig.Graph, t uint64, freeThr bool) *aig.Graph {
	g := aig.New("wce-miter")
	b := &gen.Builder{G: g}
	pis := make([]aig.Lit, orig.NumPIs())
	for i := range pis {
		pis[i] = g.AddPI(fmt.Sprintf("x%d", i))
	}
	var thr gen.Word
	if freeThr {
		thr = b.Input("t", orig.NumPOs())
	}
	ao := gen.Word(aig.AppendGraph(g, orig, pis))
	aa := gen.Word(aig.AppendGraph(g, approx, pis))
	d0, borrow := b.Sub(ao, aa) // orig − approx (mod 2^K), borrow ⇒ approx > orig
	d1, _ := b.Sub(aa, ao)
	abs := b.Mux(borrow, d1, d0)
	if !freeThr {
		thr = b.Const(t, len(abs))
	}
	viol := b.LtU(thr, abs) // t < |diff|
	g.AddPO(viol, "violation")
	return g
}

// ErrBudget reports that a conflict-limited certification call ran out of
// budget before reaching a verdict. The WCE flow treats it as a failed
// certification (roll back), which keeps runs deterministic.
var ErrBudget = errors.New("equiv: certification conflict budget exhausted")

// checkWCE rejects circuit pairs the WCE miter cannot compare.
func checkWCE(orig, approx *aig.Graph) error {
	if orig.NumPIs() != approx.NumPIs() || orig.NumPOs() != approx.NumPOs() {
		return errors.New("equiv: interface mismatch")
	}
	if orig.NumPOs() > 63 {
		return errors.New("equiv: WCE certification limited to ≤ 63 outputs")
	}
	return nil
}

// maxDiff is 2^K − 1, the largest |orig − approx| over K outputs. A
// threshold at or above it is trivially satisfied; this also guards the
// miter, whose threshold word is only K bits wide — encoding a larger t
// there would silently truncate it mod 2^K and report a spurious violation.
func maxDiff(g *aig.Graph) uint64 { return uint64(1)<<uint(g.NumPOs()) - 1 }

// WCEAtMost reports whether the worst-case numeric error of approx against
// orig (unsigned LSB-first output interpretation) is at most t for every
// input, by one SAT call on a fresh miter with t built in. On failure it
// returns a violating input assignment. limit caps the solver's conflicts
// (0 = unlimited); running out returns ErrBudget. When ctx ends before the
// verdict the solver is interrupted at its next conflict, and the call
// returns ctx.Err(), having proven nothing.
func WCEAtMost(ctx context.Context, orig, approx *aig.Graph, t uint64, limit int64) (bool, []bool, error) {
	if err := checkWCE(orig, approx); err != nil {
		return false, nil, err
	}
	if t >= maxDiff(orig) {
		return true, nil, nil
	}
	m := buildWCEMiter(orig, approx, t, false)
	s := sat.New()
	s.MaxConflicts = limit
	piVars := make([]int, m.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	outs := tseitin(s, m, piVars)
	if !s.AddClause(outs[0]) {
		return true, nil, nil
	}
	return solveWCE(ctx, s, nil, piVars, limit)
}

// solveWCE solves a violation miter under the assumptions, interrupting
// the solver when ctx ends, and turns the outcome into WCEAtMost's
// result: Unsat certifies, Sat yields the counterexample on xVars.
func solveWCE(ctx context.Context, s *sat.Solver, assume []sat.Lit, xVars []int, limit int64) (bool, []bool, error) {
	if err := ctx.Err(); err != nil {
		return false, nil, err // ended before the call: no race with the interrupt
	}
	defer context.AfterFunc(ctx, s.Interrupt)()
	switch s.Solve(assume...) {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		cex := make([]bool, len(xVars))
		for i, v := range xVars {
			cex[i] = s.Model(v)
		}
		return false, cex, nil
	}
	if err := ctx.Err(); err != nil {
		return false, nil, err
	}
	if limit > 0 {
		return false, nil, ErrBudget
	}
	return false, nil, errors.New("equiv: solver limit reached")
}

// Session checks one approximation at many bounds on one solver — the
// binary search that tightens a proven bound. The miter is encoded once
// with a free threshold word, and each bound is a set of assumption
// literals fixing that word, so every check reuses the clauses learnt by
// the earlier ones. The circuits must not change while the session is in
// use, and a Session is not safe for concurrent use. A check interrupted
// by its context leaves the solver stopped: every later check of the
// session fails without a verdict.
type Session struct {
	s       *sat.Solver
	xVars   []int // solver variables of orig's inputs
	thrVars []int // solver variables of the threshold word, LSB first
	assume  []sat.Lit
	maxDiff uint64
}

// NewSession encodes the free-threshold miter of approx against orig.
func NewSession(orig, approx *aig.Graph) (*Session, error) {
	if err := checkWCE(orig, approx); err != nil {
		return nil, err
	}
	m := buildWCEMiter(orig, approx, 0, true)
	s := sat.New()
	piVars := make([]int, m.NumPIs())
	for i := range piVars {
		piVars[i] = s.NewVar()
	}
	// A false return means no threshold admits a violation; every later
	// Solve then reports Unsat, which certifies.
	s.AddClause(tseitin(s, m, piVars)[0])
	n := orig.NumPIs()
	return &Session{s: s, xVars: piVars[:n], thrVars: piVars[n:], maxDiff: maxDiff(orig)}, nil
}

// AtMost is WCEAtMost on the session's circuits: one SAT call under
// assumptions fixing the threshold word to t.
func (w *Session) AtMost(ctx context.Context, t uint64, limit int64) (bool, []bool, error) {
	if t >= w.maxDiff {
		return true, nil, nil
	}
	w.assume = w.assume[:0]
	for i, v := range w.thrVars {
		w.assume = append(w.assume, sat.MkLit(v, t>>uint(i)&1 == 0))
	}
	w.s.MaxConflicts = limit
	return solveWCE(ctx, w.s, w.assume, w.xVars, limit)
}

// WorstCaseError computes the exact worst-case numeric error by binary
// search over [0, 2^POs − 1], every probe solved in one incremental
// session.
func WorstCaseError(orig, approx *aig.Graph) (uint64, error) {
	if orig.NumPOs() > 62 {
		return 0, errors.New("equiv: too many outputs for exact WCE")
	}
	lo, hi := uint64(0), maxDiff(orig)
	if lo == hi {
		return 0, nil
	}
	w, err := NewSession(orig, approx)
	if err != nil {
		return 0, err
	}
	// Invariant: WCE > lo−1 (i.e. not certified at lo−1), WCE ≤ hi.
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, _, err := w.AtMost(context.Background(), mid, 0)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
