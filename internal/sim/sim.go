// Package sim provides bit-parallel Monte-Carlo simulation of AIGs: every
// node holds one bit per input pattern, packed 64 patterns per word, so one
// word-level AND evaluates 64 patterns at once. The simulator supports full
// resimulation (optionally multi-threaded across word ranges) and the
// incremental TFO-only resimulation the dual-phase framework relies on after
// applying a LAC.
package sim

import (
	"context"
	"math/rand"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/par"
)

// Distribution fills the pattern words of one primary input. Implementations
// must be deterministic given the rng. Bits past the pattern count need not
// be masked; the simulator masks them.
type Distribution interface {
	Fill(pi int, v bitvec.Vec, rng *rand.Rand)
}

// Uniform is the default input distribution: every input bit is an
// independent fair coin.
type Uniform struct{}

// Fill implements Distribution.
func (Uniform) Fill(_ int, v bitvec.Vec, rng *rand.Rand) {
	for i := range v {
		v[i] = rng.Uint64()
	}
}

// Biased draws each input bit independently with a per-input probability
// of being 1 (inputs beyond len(P) use 0.5). Models non-uniform workload
// distributions — the framework's error estimation is distribution-
// agnostic (paper §I).
type Biased struct {
	P []float64
}

// Fill implements Distribution.
func (b Biased) Fill(pi int, v bitvec.Vec, rng *rand.Rand) {
	p := 0.5
	if pi < len(b.P) {
		p = b.P[pi]
	}
	for i := range v {
		var w uint64
		for bit := 0; bit < 64; bit++ {
			if rng.Float64() < p {
				w |= 1 << uint(bit)
			}
		}
		v[i] = w
	}
}

// Exhaustive enumerates all input combinations: pattern i assigns bit j of i
// to input j. Use with Patterns == 1<<NumPIs for exact error measurement on
// small circuits.
type Exhaustive struct{}

// Fill implements Distribution.
func (Exhaustive) Fill(pi int, v bitvec.Vec, _ *rand.Rand) {
	if pi < 6 {
		// Within a word the pattern index varies in the low 6 bits.
		var w uint64
		period := uint(1) << uint(pi)
		// Build the repeating pattern for this input: period zeros then
		// period ones.
		for b := uint(0); b < 64; b++ {
			if b/period%2 == 1 {
				w |= 1 << b
			}
		}
		for i := range v {
			v[i] = w
		}
		return
	}
	// Across words: word index w covers patterns [64w, 64w+63]; input pi
	// is bit pi of the pattern index, constant within a word.
	shift := uint(pi - 6)
	for i := range v {
		if uint64(i)>>shift&1 == 1 {
			v[i] = ^uint64(0)
		} else {
			v[i] = 0
		}
	}
}

// Options configures a simulator.
type Options struct {
	Patterns int   // number of Monte-Carlo patterns (rounded up to 64)
	Seed     int64 // RNG seed for reproducibility
	// Threads is the worker count for full resimulation, with the
	// pipeline-wide semantics of package par: ≤0 selects all CPUs
	// (runtime.GOMAXPROCS), 1 runs serially. Resolved once, here; results
	// are bit-identical for every value.
	Threads int
	Dist    Distribution // input distribution; nil means Uniform
}

// Sim holds simulation state for one graph. The value vectors track the
// graph incrementally: after a structural edit, call ResimulateFrom with the
// dirty nodes (or Resimulate for a full pass).
type Sim struct {
	g        *aig.Graph
	patterns int
	words    int
	threads  int
	lastMask uint64        // final-word mask of the pattern count
	arena    *bitvec.Arena // backs every value vector; never reset
	val      []bitvec.Vec  // per variable id
	dirty    []bool        // scratch for incremental resim
	touched  []int32       // ResimulateFrom scratch: dirtied nodes
	changed  []int32       // ResimulateFrom scratch: the returned slice
}

// New builds a simulator, draws the input patterns, and runs a full
// simulation.
func New(g *aig.Graph, opt Options) *Sim {
	if opt.Patterns <= 0 {
		opt.Patterns = 1024
	}
	words := bitvec.Words(opt.Patterns)
	patterns := words * 64 // use every drawn bit: keeps masking trivial
	if _, ok := opt.Dist.(Exhaustive); ok {
		patterns = opt.Patterns // exact count matters; mask below
	}
	s := &Sim{
		g:        g,
		patterns: patterns,
		words:    words,
		threads:  par.Workers(opt.Threads),
		lastMask: bitvec.MaskWord(patterns),
		arena:    bitvec.NewArena(words),
		val:      make([]bitvec.Vec, g.NumVars()),
		dirty:    make([]bool, g.NumVars()),
	}
	dist := opt.Dist
	if dist == nil {
		dist = Uniform{}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	s.val[0] = s.arena.Alloc()
	s.val[0].Clear() // constant node: all zero
	for i, v := range g.PIs() {
		s.val[v] = s.arena.Alloc()
		dist.Fill(i, s.val[v], rng)
		s.val[v].Mask(s.patterns)
	}
	s.Resimulate()
	return s
}

// Patterns returns the number of simulated patterns.
func (s *Sim) Patterns() int { return s.patterns }

// Words returns the number of 64-bit words per value vector.
func (s *Sim) Words() int { return s.words }

// Graph returns the simulated graph.
func (s *Sim) Graph() *aig.Graph { return s.g }

// Val returns the value vector of variable v. The vector is owned by the
// simulator; callers must not modify it.
func (s *Sim) Val(v int32) bitvec.Vec { return s.val[v] }

// LitVal writes the value of literal l into dst.
func (s *Sim) LitVal(l aig.Lit, dst bitvec.Vec) {
	src := s.val[l.Var()]
	if l.IsCompl() {
		dst.Not(src)
		dst.Mask(s.patterns)
	} else {
		dst.CopyFrom(src)
	}
}

// POVal writes the value of the i-th primary output into dst.
func (s *Sim) POVal(i int, dst bitvec.Vec) { s.LitVal(s.g.PO(i), dst) }

func complMask(c bool) uint64 {
	if c {
		return ^uint64(0)
	}
	return 0
}

// ensure guarantees a value vector exists for v (new nodes appear when the
// graph grows after the simulator was created).
func (s *Sim) ensure(v int32) {
	if int(v) >= len(s.val) {
		grown := make([]bitvec.Vec, s.g.NumVars())
		copy(grown, s.val)
		s.val = grown
		gd := make([]bool, s.g.NumVars())
		copy(gd, s.dirty)
		s.dirty = gd
	}
	if s.val[v] == nil {
		s.val[v] = s.arena.Alloc()
		s.val[v].Clear() // arena rows hold garbage; new nodes must read 0
	}
}

func (s *Sim) evalNode(v int32, lo, hi int) {
	f0, f1 := s.g.Fanins(v)
	a, b := s.val[f0.Var()], s.val[f1.Var()]
	m0, m1 := complMask(f0.IsCompl()), complMask(f1.IsCompl())
	dst := s.val[v]
	for i := lo; i < hi; i++ {
		dst[i] = (a[i] ^ m0) & (b[i] ^ m1)
	}
	if hi == s.words {
		dst.Mask(s.patterns)
	}
}

// Resimulate recomputes every node value from the PIs. With more than one
// worker the word range is split across workers (node values are
// independent per word), yielding bit-identical results to a serial pass.
func (s *Sim) Resimulate() {
	order := s.g.Topo()
	for _, v := range order {
		if s.g.Type(v) == aig.TypeAnd {
			s.ensure(v)
		}
	}
	nw := s.threads
	if nw > s.words {
		nw = s.words
	}
	if nw <= 1 {
		for _, v := range order {
			if s.g.Type(v) == aig.TypeAnd {
				s.evalNode(v, 0, s.words)
			}
		}
		return
	}
	chunk := (s.words + nw - 1) / nw
	par.For(context.Background(), nw, nw, func(_, w int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > s.words {
			hi = s.words
		}
		if lo >= hi {
			return
		}
		for _, v := range order {
			if s.g.Type(v) == aig.TypeAnd {
				s.evalNode(v, lo, hi)
			}
		}
	})
}

// ResimulateFrom incrementally recomputes values after a structural change.
// roots are the nodes whose fanins were rewired (aig.ChangeSet.Rewired);
// only their transitive fanout is revisited, and propagation stops early at
// nodes whose value did not actually change. It returns the variables whose
// value vector changed.
//
// The returned slice is simulator-owned scratch, valid only until the next
// ResimulateFrom call — callers that need it longer must copy it.
func (s *Sim) ResimulateFrom(roots []int32) []int32 {
	order := s.g.Topo()
	touched := s.touched[:0]
	setDirty := func(v int32) {
		if int(v) >= len(s.dirty) {
			s.ensure(v)
		}
		if !s.dirty[v] {
			s.dirty[v] = true
			touched = append(touched, v)
		}
	}
	for _, r := range roots {
		setDirty(r)
	}
	changed := s.changed[:0]
	for _, v := range order {
		if int(v) >= len(s.dirty) {
			s.ensure(v)
		}
		if !s.dirty[v] || s.g.Type(v) != aig.TypeAnd {
			continue
		}
		s.ensure(v)
		// Fused save–evaluate–compare: one pass over the words, no
		// scratch vector, identical result to the unfused sequence.
		f0, f1 := s.g.Fanins(v)
		a, b := s.val[f0.Var()], s.val[f1.Var()]
		m0, m1 := complMask(f0.IsCompl()), complMask(f1.IsCompl())
		if s.val[v].AndMaybeNotDiff(a, b, m0, m1, s.lastMask) != 0 {
			changed = append(changed, v)
			for _, f := range s.g.Fanouts(v) {
				setDirty(f)
			}
		}
	}
	for _, v := range touched {
		s.dirty[v] = false
	}
	s.touched = touched[:0]
	s.changed = changed
	return changed
}
