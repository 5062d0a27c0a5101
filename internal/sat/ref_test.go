package sat

// refSolver is the solver kernel as it stood before the arena rewrite,
// kept verbatim (identifiers renamed, Status shared) as the reference for
// TestKernelMatchesReference: the kernel must reproduce its status,
// conflict count and model on every single-shot instance.

import "sort"

const (
	refUnassigned int8 = 0
	refTrue       int8 = 1
	refFalse      int8 = -1
)

type refClause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

// refSolver is a CDCL SAT solver. Add variables with NewVar, clauses with
// AddClause, then call Solve.
type refSolver struct {
	clauses []*refClause
	watches [][]*refClause // per literal

	assign  []int8 // per var
	level   []int32
	reason  []*refClause
	trail   []Lit
	trailLo []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	order    []int  // decision order scratch
	phase    []bool // saved phases

	ok        bool
	conflicts int64

	// Limits.
	MaxConflicts int64 // 0: unlimited
}

// newRef returns an empty reference solver.
func newRef() *refSolver {
	return &refSolver{ok: true, varInc: 1}
}

// NewVar adds a variable and returns its index.
func (s *refSolver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, refUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

// NumVars returns the variable count.
func (s *refSolver) NumVars() int { return len(s.assign) }

func (s *refSolver) litVal(l Lit) int8 {
	v := s.assign[l.Var()]
	if v == refUnassigned {
		return refUnassigned
	}
	if l.Neg() {
		return -v
	}
	return v
}

// AddClause adds a clause; returns false when the formula became trivially
// unsatisfiable.
func (s *refSolver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Normalise: sort, dedupe, drop tautologies and false literals at
	// level 0.
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology
		}
		switch s.litVal(l) {
		case refTrue:
			if s.level[l.Var()] == 0 {
				return true // already satisfied forever
			}
		case refFalse:
			if s.level[l.Var()] == 0 {
				prev = l
				continue // drop the literal
			}
		}
		out = append(out, l)
		prev = l
	}
	lits = out
	switch len(lits) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(lits[0], nil) {
			s.ok = false
			return false
		}
		if conf := s.propagate(); conf != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &refClause{lits: append([]Lit(nil), lits...)}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

func (s *refSolver) attach(c *refClause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *refSolver) decisionLevel() int32 { return int32(len(s.trailLo)) }

func (s *refSolver) enqueue(l Lit, from *refClause) bool {
	switch s.litVal(l) {
	case refTrue:
		return true
	case refFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = refFalse
	} else {
		s.assign[v] = refTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *refSolver) propagate() *refClause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if c.deleted {
				continue
			}
			// Ensure c.lits[1] is the false literal (p.Not()).
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litVal(c.lits[0]) == refTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litVal(c.lits[k]) != refFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
}

func (s *refSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives a first-UIP learnt clause from a conflict; returns the
// clause (asserting literal first) and the backtrack level.
func (s *refSolver) analyze(conf *refClause) ([]Lit, int32) {
	learnt := []Lit{0} // slot for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conf
	first := true

	for {
		// For reason clauses, lits[0] is the implied literal and is
		// skipped; the conflict clause contributes every literal.
		start := 1
		if first {
			start = 0
			first = false
		}
		for k := start; k < len(c.lits); k++ {
			q := c.lits[k]
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk back the trail to the next marked literal.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx].Not()
		v := s.trail[idx].Var()
		c = s.reason[v]
		seen[v] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p
	// Backtrack level: highest level among the other literals; move one
	// literal of that level to position 1 so both watches are sound after
	// backtracking.
	bt := int32(0)
	btIdx := -1
	for i, q := range learnt[1:] {
		if s.level[q.Var()] > bt {
			bt = s.level[q.Var()]
			btIdx = i + 1
		}
	}
	if btIdx > 1 {
		learnt[1], learnt[btIdx] = learnt[btIdx], learnt[1]
	}
	return learnt, bt
}

func (s *refSolver) backtrackTo(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= int(lo); i-- {
		v := s.trail[i].Var()
		s.assign[v] = refUnassigned
		s.reason[v] = nil
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

func (s *refSolver) pickBranch() Lit {
	best, bestAct := -1, -1.0
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] == refUnassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best < 0 {
		return -1
	}
	return MkLit(best, !s.phase[best])
}

// Solve runs the solver under the optional assumptions and returns the
// status. After Sat, Model reports variable values.
func (s *refSolver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	if conf := s.propagate(); conf != nil {
		s.ok = false
		return Unsat
	}
	// Assumptions as pseudo-decisions at successive levels.
	for _, a := range assumptions {
		if s.litVal(a) == refTrue {
			continue
		}
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		if !s.enqueue(a, nil) || s.propagate() != nil {
			s.backtrackTo(0)
			return Unsat
		}
	}
	assumeLevel := s.decisionLevel()

	restartLimit := int64(100)
	confsAtRestart := int64(0)
	for {
		conf := s.propagate()
		if conf != nil {
			s.conflicts++
			confsAtRestart++
			if s.decisionLevel() == assumeLevel {
				s.backtrackTo(0)
				return Unsat
			}
			learnt, bt := s.analyze(conf)
			if bt < assumeLevel {
				bt = assumeLevel
			}
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.backtrackTo(0)
					return Unsat
				}
			} else {
				c := &refClause{lits: learnt, learnt: true}
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && s.conflicts >= s.MaxConflicts {
				s.backtrackTo(0)
				return Unknown
			}
			if confsAtRestart >= restartLimit {
				confsAtRestart = 0
				restartLimit += restartLimit / 2
				s.backtrackTo(assumeLevel)
			}
			continue
		}
		next := s.pickBranch()
		if next < 0 {
			return Sat // full assignment
		}
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		s.enqueue(next, nil)
	}
}

// Model returns the value of variable v after a Sat result.
func (s *refSolver) Model(v int) bool { return s.assign[v] == refTrue }

// VerifyModel checks every original (non-learnt) clause under the current
// assignment — a self-check for tests.
func (s *refSolver) VerifyModel() bool {
	for _, c := range s.clauses {
		if c.learnt || c.deleted {
			continue
		}
		ok := false
		for _, l := range c.lits {
			if s.litVal(l) == refTrue {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
