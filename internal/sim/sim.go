// Package sim provides bit-parallel simulation of AIGs: every node holds one
// bit per input pattern, packed 64 patterns per word, so one word-level AND
// evaluates 64 patterns at once. The simulator supports full resimulation
// (optionally multi-threaded across word ranges) and the incremental
// TFO-only resimulation the dual-phase framework relies on after applying a
// LAC.
//
// New is the one place that picks the input patterns. Under the uniform
// distribution, a circuit whose whole input space fits the pattern budget
// (2^PIs ≤ Patterns) is enumerated: every input combination exactly once,
// so every error figure measured on the patterns is exact, not an
// estimate. Larger input spaces, and every run with input probabilities
// (Options.Probs), are sampled (Monte-Carlo). Every caller that asks for
// uniform patterns — the engine, the verification oracle, independent
// re-measurement — therefore sees the same patterns for the same options.
// WorstCase streams the same enumeration, chunk by chunk, to measure a
// worst-case error over input spaces beyond the pattern budget.
package sim

import (
	"context"
	"math/rand"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/par"
)

// fillUniform draws every input bit as an independent fair coin.
func fillUniform(v bitvec.Vec, rng *rand.Rand) {
	for i := range v {
		v[i] = rng.Uint64()
	}
}

// fillBiased draws each input bit independently, 1 with probability p.
// Models non-uniform workload distributions — the framework's error
// estimation is distribution-agnostic (paper §I).
func fillBiased(p float64, v bitvec.Vec, rng *rand.Rand) {
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

// enumWords are the words of inputs 0..5 under enumeration: within a word
// the pattern index varies in the low 6 bits, so input pi repeats 2^pi
// zeros then 2^pi ones.
var enumWords = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// fillEnum enumerates all input combinations: pattern i assigns bit pi of
// i to input pi. v holds the words from index first on, so a WorstCase
// can generate the space one chunk at a time.
func fillEnum(pi int, v []uint64, first int) {
	if pi < 6 {
		for i := range v {
			v[i] = enumWords[pi]
		}
		return
	}
	// Across words: word index w covers patterns [64w, 64w+63]; input pi
	// is bit pi of the pattern index, constant within a word.
	shift := uint(pi - 6)
	for i := range v {
		if uint64(first+i)>>shift&1 == 1 {
			v[i] = ^uint64(0)
		} else {
			v[i] = 0
		}
	}
}

// Options configures a simulator.
type Options struct {
	// Patterns is the pattern budget (≤0: 1024). Sampled runs round it up
	// to a multiple of 64; a uniform run on a circuit with 2^PIs ≤
	// Patterns enumerates instead and simulates exactly 2^PIs patterns.
	Patterns int
	Seed     int64 // RNG seed for reproducibility (unused when enumerating)
	// Threads is the worker count for full resimulation, with the
	// pipeline-wide semantics of package par: ≤0 selects all CPUs
	// (runtime.GOMAXPROCS), 1 runs serially. Resolved once, here; results
	// are bit-identical for every value.
	Threads int
	// Probs biases the sampled inputs: entry i is the probability that
	// input i is 1 (inputs beyond len(Probs) use 0.5). Empty means
	// uniform; a biased run always samples.
	Probs []float64
}

// defaultPatterns is the pattern budget of Options.Patterns ≤ 0.
const defaultPatterns = 1024

// Enumerates reports whether New, given a circuit with numPIs inputs and
// opt, enumerates the input space: the distribution is uniform (Probs is
// empty) and the whole space fits the pattern budget. It is the one rule
// that decides.
func Enumerates(numPIs int, opt Options) bool {
	if opt.Patterns <= 0 {
		opt.Patterns = defaultPatterns
	}
	return len(opt.Probs) == 0 && numPIs < 31 && 1<<numPIs <= opt.Patterns
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

// New builds a simulator, fills the input patterns — enumerated when the
// uniform input space fits the budget, drawn otherwise — and runs a full
// simulation.
func New(g *aig.Graph, opt Options) *Sim {
	if opt.Patterns <= 0 {
		opt.Patterns = defaultPatterns
	}
	enum := Enumerates(g.NumPIs(), opt)
	patterns := bitvec.Words(opt.Patterns) * 64 // use every drawn bit: keeps masking trivial
	if enum {
		patterns = 1 << g.NumPIs() // exact count matters; mask below
	}
	words := bitvec.Words(patterns)
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
	rng := rand.New(rand.NewSource(opt.Seed))
	s.val[0] = s.arena.Alloc()
	s.val[0].Clear() // constant node: all zero
	for i, v := range g.PIs() {
		s.val[v] = s.arena.Alloc()
		switch {
		case enum:
			fillEnum(i, s.val[v], 0)
		case len(opt.Probs) > 0:
			p := 0.5
			if i < len(opt.Probs) {
				p = opt.Probs[i]
			}
			fillBiased(p, s.val[v], rng)
		default:
			fillUniform(s.val[v], rng)
		}
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

// Resimulate recomputes every node value from the PIs. The word range is
// split across the workers (node values are independent per word), so the
// result is bit-identical for every thread count; one worker runs the
// whole range inline.
func (s *Sim) Resimulate() {
	order := s.g.Topo()
	for _, v := range order {
		if s.g.Type(v) == aig.TypeAnd {
			s.ensure(v)
		}
	}
	nw := min(s.threads, s.words)
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
