// Package sat implements a compact CDCL SAT solver — conflict-driven
// clause learning with two-watched literals, first-UIP learning, VSIDS-like
// activity ordering, phase saving and geometric restarts. It exists to
// back formal checks on synthesis results (package equiv): combinational
// equivalence and worst-case-error certification of approximate circuits.
//
// Clauses live in one flat literal arena addressed by uint32 references,
// literal values are kept per literal, and decisions come from a binary
// heap. The search — propagation order, learning, bumping, tie breaks,
// restarts — must stay that of the reference kernel in ref_test.go: on
// any single Solve call the status, conflict count and model are the same
// (TestKernelMatchesReference), so certification verdicts and
// counterexamples do not depend on the layout.
package sat

import (
	"math"
	"slices"
	"sync/atomic"
)

// Lit is a solver literal: variable<<1 | sign (sign 1 = negated).
// Variables are 0-based.
type Lit int32

// MkLit builds a literal.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement.
func (l Lit) Not() Lit { return l ^ 1 }

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// cref addresses a clause in the arena: arena[r] is its header
// (size<<1 | learnt), arena[r+1 : r+1+size] its literals. Clauses are
// never deleted, so the arena only grows.
type cref = uint32

// crefUndef is the reason of decisions, assumptions and unit clauses.
const crefUndef cref = math.MaxUint32

// Solver is a CDCL SAT solver. Add variables with NewVar, clauses with
// AddClause, then call Solve. A solver may be solved repeatedly under
// different assumptions, with clauses added in between; learnt clauses
// carry over from call to call.
type Solver struct {
	arena   []Lit
	watches [][]cref // per literal: clauses watching its complement

	vals    []int8 // per literal
	level   []int32
	reason  []cref
	trail   []Lit
	trailLo []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	heap     []int32 // decision order: max-heap on (activity desc, var asc)
	heapPos  []int32 // per var: index in heap, -1 when absent
	phase    []bool  // saved phases

	seen   []bool // per var: analyze scratch, all false between conflicts
	learnt []Lit  // analyze output buffer

	ok        bool
	conflicts int64 // over the solver's lifetime

	// MaxConflicts caps the conflicts of each Solve call; 0: unlimited.
	MaxConflicts int64

	stop atomic.Bool // set by Interrupt, read at every conflict
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1}
}

// NewVar adds a variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, valUnassigned, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(int32(v))
	return v
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.level) }

// lits returns the literals of clause r (aliasing the arena).
func (s *Solver) lits(r cref) []Lit {
	n := cref(s.arena[r] >> 1)
	return s.arena[r+1 : r+1+n : r+1+n]
}

// AddClause adds a clause; returns false when the formula became trivially
// unsatisfiable. It sorts lits in place. Adding a clause discards the model
// of a previous Sat result.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	// Normalise: sort, dedupe, drop tautologies and false literals at
	// level 0.
	slices.Sort(lits)
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.vals[l] {
		case valTrue:
			return true // already satisfied forever
		case valFalse:
			prev = l
			continue // drop the literal
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
		if !s.enqueue(lits[0], crefUndef) || s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.attach(s.alloc(lits, false))
	return true
}

// alloc copies a clause into the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	r := cref(len(s.arena))
	h := Lit(len(lits)) << 1
	if learnt {
		h |= 1
	}
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	return r
}

func (s *Solver) attach(r cref) {
	c := s.lits(r)
	s.watches[c[0].Not()] = append(s.watches[c[0].Not()], r)
	s.watches[c[1].Not()] = append(s.watches[c[1].Not()], r)
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLo)) }

// enqueue assigns l true with the given reason; false when l is already
// false.
func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.vals[l] {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	s.vals[l], s.vals[l^1] = valTrue, valFalse
	v := l.Var()
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	arena, vals := s.arena, s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falseLit := p.Not()
		ws := s.watches[p]
		j := 0 // ws[:j] are the watches kept
	next:
		for i, r := range ws {
			n := arena[r] >> 1
			c := arena[r+1 : r+1+cref(n)]
			// Ensure c[1] is the false literal.
			if c[0] == falseLit {
				c[0], c[1] = c[1], falseLit
			}
			first := c[0]
			if vals[first] == valTrue {
				ws[j] = r
				j++
				continue
			}
			// Find a new watch.
			for k := 2; k < len(c); k++ {
				if l := c[k]; vals[l] != valFalse {
					c[1], c[k] = l, falseLit
					s.watches[l.Not()] = append(s.watches[l.Not()], r)
					continue next
				}
			}
			// Unit or conflict.
			ws[j] = r
			j++
			if vals[first] == valFalse {
				// Conflict: keep the remaining watches and report.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				return r
			}
			s.enqueue(first, r)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// heapLess orders the decision heap: higher activity first, then the
// lower variable index — the pick of a first-max scan over all variables.
func (s *Solver) heapLess(a, b int32) bool {
	aa, ab := s.activity[a], s.activity[b]
	return aa > ab || (aa == ab && a < b)
}

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
	h := s.heap
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, h[p]) {
			break
		}
		h[i] = h[p]
		s.heapPos[h[i]] = int32(i)
		i = p
	}
	h[i] = v
	s.heapPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	h := s.heap
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && s.heapLess(h[c+1], h[c]) {
			c++
		}
		if !s.heapLess(h[c], v) {
			break
		}
		h[i] = h[c]
		s.heapPos[h[i]] = int32(i)
		i = c
	}
	h[i] = v
	s.heapPos[v] = int32(i)
}

// heapPop removes and returns the top variable.
func (s *Solver) heapPop() int32 {
	h := s.heap
	top := h[0]
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	s.heapPos[top] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling may round distinct activities to equal ones, which
		// changes their order under the index tie-break: rebuild.
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			s.heapDown(i)
		}
		return
	}
	if p := s.heapPos[v]; p >= 0 {
		s.heapUp(int(p))
	}
}

// analyze derives a first-UIP learnt clause from a conflict into
// s.learnt (asserting literal first) and returns the backtrack level.
func (s *Solver) analyze(conf cref) int32 {
	s.learnt = append(s.learnt[:0], 0) // slot for the asserting literal
	dl := s.decisionLevel()
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	r := conf
	// For reason clauses, lits[0] is the implied literal and is skipped;
	// the conflict clause contributes every literal.
	start := 0
	for {
		for _, q := range s.lits(r)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == dl {
				counter++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		start = 1
		// Walk back the trail to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx].Not()
		v := s.trail[idx].Var()
		r = s.reason[v]
		s.seen[v] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt := s.learnt
	learnt[0] = p
	// Backtrack level: highest level among the other literals; move one
	// literal of that level to position 1 so both watches are sound after
	// backtracking.
	bt := int32(0)
	btIdx := -1
	for i, q := range learnt[1:] {
		s.seen[q.Var()] = false
		if s.level[q.Var()] > bt {
			bt = s.level[q.Var()]
			btIdx = i + 1
		}
	}
	if btIdx > 1 {
		learnt[1], learnt[btIdx] = learnt[btIdx], learnt[1]
	}
	return bt
}

func (s *Solver) backtrackTo(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	lo := s.trailLo[lvl]
	for i := len(s.trail) - 1; i >= int(lo); i-- {
		l := s.trail[i]
		s.vals[l], s.vals[l^1] = valUnassigned, valUnassigned
		v := l.Var()
		s.reason[v] = crefUndef
		if s.heapPos[v] < 0 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:lvl]
	s.qhead = len(s.trail)
}

// pickBranch returns the unassigned variable of highest activity (lowest
// index among equals) in its saved phase, or -1 under a full assignment.
func (s *Solver) pickBranch() Lit {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.vals[2*v] == valUnassigned {
			return MkLit(int(v), !s.phase[v])
		}
	}
	return -1
}

// Status is the solve outcome.
type Status int

// Outcomes.
const (
	Unsat Status = iota
	Sat
	Unknown // conflict limit reached, or interrupted
)

// Interrupt makes the running Solve call, and every later one, return
// Unknown at its next conflict (a restart follows a conflict, so it is
// checked there too). It is the one method safe to call from another
// goroutine while Solve runs; it does not change the search up to the
// conflict where it is seen.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// Solve runs the solver under the optional assumptions and returns the
// status: Unknown when the conflict cap is reached or Interrupt was
// called. After Sat, Model reports variable values until the next Solve
// or AddClause.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	if s.stop.Load() {
		return Unknown
	}
	s.backtrackTo(0) // drop the previous call's model
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}
	// Assumptions as pseudo-decisions at successive levels.
	for _, a := range assumptions {
		if s.vals[a] == valTrue {
			continue
		}
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		if !s.enqueue(a, crefUndef) || s.propagate() != crefUndef {
			s.backtrackTo(0)
			return Unsat
		}
	}
	assumeLevel := s.decisionLevel()

	restartLimit := int64(100)
	confsAtRestart := int64(0)
	confs := int64(0)
	for {
		conf := s.propagate()
		if conf != crefUndef {
			s.conflicts++
			confs++
			confsAtRestart++
			if s.decisionLevel() == assumeLevel {
				s.backtrackTo(0)
				return Unsat
			}
			bt := s.analyze(conf)
			if bt < assumeLevel {
				bt = assumeLevel
			}
			s.backtrackTo(bt)
			if len(s.learnt) == 1 {
				if !s.enqueue(s.learnt[0], crefUndef) {
					s.backtrackTo(0)
					return Unsat
				}
			} else {
				r := s.alloc(s.learnt, true)
				s.attach(r)
				s.enqueue(s.learnt[0], r)
			}
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && confs >= s.MaxConflicts || s.stop.Load() {
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
		s.enqueue(next, crefUndef)
	}
}

// Model returns the value of variable v after a Sat result.
func (s *Solver) Model(v int) bool { return s.vals[MkLit(v, false)] == valTrue }

// VerifyModel checks every original (non-learnt) clause under the current
// assignment — a self-check for tests.
func (s *Solver) VerifyModel() bool {
	for r := cref(0); int(r) < len(s.arena); {
		h := s.arena[r]
		c := s.lits(r)
		r += 1 + cref(len(c))
		if h&1 == 1 {
			continue
		}
		if !slices.ContainsFunc(c, func(l Lit) bool { return s.vals[l] == valTrue }) {
			return false
		}
	}
	return true
}
