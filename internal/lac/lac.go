// Package lac generates and evaluates local approximate changes (LACs).
// Two LAC families are supported, matching the paper's experiments:
//
//   - constant LACs: replace a node by constant 0 or 1;
//   - SASIMI LACs [13]: replace a node by another existing signal, possibly
//     complemented ("substitute and simplify").
//
// Every LAC has a single-output affected region whose output is the target
// node (§III-A), so applying one is exactly aig.Graph.ReplaceWithLit.
// Candidate errors are evaluated in batch against the CPM (package cpm)
// and the metric state (package metric); with a single LAC per iteration
// the estimate is exact w.r.t. the sampled patterns.
package lac

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/metric"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// LAC is one candidate local approximate change: replace Target by NewLit.
type LAC struct {
	Target int32
	NewLit aig.Lit
	Gain   int // estimated AND nodes saved (MFFC of the target)
}

// IsConst reports whether the LAC replaces its target by a constant.
func (l LAC) IsConst() bool { return l.NewLit.Var() == 0 }

// DiffOperands returns the unmaterialised form of DiffMask: the target's
// value flips exactly on the set bits of val(target) ⊕ val(NewLit's var)
// ⊕ Inv, where Inv is all-ones when NewLit is complemented. For constant
// LACs the second operand is the simulator's all-zero constant vector.
// Feeding the operands straight into metric.State.ScoreBatch scores the
// candidate without writing a diff vector; padding bits that Inv sets
// past the pattern count are harmless because CPM rows are masked.
func (l LAC) DiffOperands(s *sim.Sim) metric.Operands {
	op := metric.Operands{A: s.Val(l.Target), B: s.Val(l.NewLit.Var())}
	if l.NewLit.IsCompl() {
		op.Inv = ^uint64(0)
	}
	return op
}

// DiffMask writes into dst the patterns under which the target's value
// changes when the LAC is applied: val(target) ⊕ val(NewLit).
func (l LAC) DiffMask(s *sim.Sim, dst bitvec.Vec) {
	tv := s.Val(l.Target)
	nv := s.Val(l.NewLit.Var())
	if l.NewLit.IsCompl() {
		for i := range dst {
			dst[i] = tv[i] ^ ^nv[i]
		}
		dst.Mask(s.Patterns())
	} else {
		dst.Xor(tv, nv)
	}
}

// Options configures candidate generation.
type Options struct {
	Constants bool // generate constant-0/1 LACs
	SASIMI    bool // generate signal-substitution LACs
	// MaxPerNode bounds the number of SASIMI substitution candidates per
	// target node. The paper's third self-adaption knob ("reduce the number
	// of LACs for each target node") lowers this value when step 3
	// dominates the runtime. Default 8.
	MaxPerNode int
}

const (
	// sampleWords bounds the number of 64-bit words used for the
	// similarity ranking scan (the exact diff mask is still computed over
	// all patterns during evaluation): 512 patterns.
	sampleWords = 8
	// windowSize is the half-width of the popcount-sorted neighbourhood
	// scanned for similar signals.
	windowSize = 32
)

func (o Options) withDefaults() Options {
	if o.MaxPerNode <= 0 {
		o.MaxPerNode = 8
	}
	return o
}

// Generator produces candidate LACs for target nodes of one graph.
// The SASIMI similarity index must be refreshed (Reindex) after the
// simulation values change; flows refresh it once per iteration.
type Generator struct {
	g   *aig.Graph
	s   *sim.Sim
	opt Options

	// SASIMI similarity index: signals in (sampled popcount, list
	// position) order, where the list is the PIs and then the live ANDs in
	// topological order. rank is its inverse per var, -1 if not indexed.
	signals []int32
	pops    []int   // parallel to signals: sampled popcount
	rank    []int32 // per var
	buckets []int32 // Reindex's counting-sort buckets

	// Reused scratch. Candidate generation is serial by contract (it walks
	// shared graph traversal state), so these need no locking.
	lacBuf   []LAC          // all candidates of one Evaluate call
	offs     [][2]int       // per target: [start, end) into lacBuf
	batches  []batchScratch // Evaluate: per-worker ScoreBatch buffers
	mark     []uint32       // sasimi: per var, stamped with epoch when in the TFO or scanned
	epoch    uint32         // sasimi: current target's stamp
	tfoStack []int32        // sasimi: DFS stack
	scored   []scoredCand   // sasimi: best MaxPerNode candidates, in (dist, scan index) order
}

// batchScratch holds one worker's buffers for scoring a target's
// candidates with metric.State.ScoreBatch.
type batchScratch struct {
	ops   []metric.Operands
	errs  []float64
	masks []uint64
}

type scoredCand struct {
	node  int32
	compl bool
	dist  int
}

// NewGenerator builds a generator and its signal index.
func NewGenerator(g *aig.Graph, s *sim.Sim, opt Options) *Generator {
	gen := &Generator{g: g, s: s, opt: opt.withDefaults()}
	gen.Reindex()
	return gen
}

// MaxPerNode returns the current SASIMI candidate bound per target.
func (gen *Generator) MaxPerNode() int { return gen.opt.MaxPerNode }

// SetMaxPerNode adjusts the SASIMI candidate bound per target (the paper's
// third self-adaption knob). Values below 1 are clamped to 1.
func (gen *Generator) SetMaxPerNode(n int) {
	if n < 1 {
		n = 1
	}
	gen.opt.MaxPerNode = n
}

// Reindex rebuilds the similarity index from the current simulation values
// with a stable counting sort by sampled popcount, so the order is total
// and independent of any sort implementation. Linear in the signal count
// and allocation-free once the buffers have grown; call after every
// applied LAC or once per iteration.
func (gen *Generator) Reindex() {
	if !gen.opt.SASIMI {
		return
	}
	g, s := gen.g, gen.s
	sw := min(sampleWords, s.Words())
	each := func(f func(v int32)) {
		for _, v := range g.PIs() {
			f(v)
		}
		for _, v := range g.Topo() {
			if g.IsAnd(v) {
				f(v)
			}
		}
	}
	gen.rank = resize(gen.rank, g.NumVars())
	for i := range gen.rank {
		gen.rank[i] = -1
	}
	// buckets[p+1] counts popcount p; rank parks each signal's popcount
	// until its position is known.
	start := resize(gen.buckets, sw*64+2)
	clear(start)
	n := 0
	each(func(v int32) {
		p := int32(samplePop(s.Val(v), sw))
		gen.rank[v] = p
		start[p+1]++
		n++
	})
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	gen.signals, gen.pops, gen.buckets = resize(gen.signals, n), resize(gen.pops, n), start
	each(func(v int32) {
		p := gen.rank[v]
		i := start[p]
		start[p]++
		gen.signals[i], gen.pops[i], gen.rank[v] = v, int(p), i
	})
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func samplePop(v bitvec.Vec, words int) int {
	n := 0
	for i := 0; i < words; i++ {
		n += popcount(v[i])
	}
	return n
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// CandidatesFor returns the candidate LACs targeting node v. The target's
// MFFC size is attached as the gain of every candidate. Not safe for
// concurrent use (shares graph traversal state and generator scratch).
func (gen *Generator) CandidatesFor(v int32) []LAC {
	return gen.appendCandidates(nil, v)
}

// appendCandidates appends v's candidate LACs to out. The batch evaluator
// routes every target through one shared buffer, so steady-state candidate
// generation allocates nothing.
func (gen *Generator) appendCandidates(out []LAC, v int32) []LAC {
	g := gen.g
	if !g.IsAnd(v) {
		return out
	}
	gain := g.MFFCSize(v)
	if gen.opt.Constants {
		out = append(out,
			LAC{Target: v, NewLit: aig.False, Gain: gain},
			LAC{Target: v, NewLit: aig.True, Gain: gain},
		)
	}
	if gen.opt.SASIMI {
		out = gen.sasimiAppend(out, v, gain)
	}
	return out
}

// markTFO starts a new epoch and stamps v's transitive-fanout cone (v
// included) with it: substituting a signal from the cone would create a
// cycle. sasimiAppend also stamps every signal it scans, so the stamp
// doubles as its dedup mark.
func (gen *Generator) markTFO(v int32) {
	g := gen.g
	if n := g.NumVars(); len(gen.mark) < n {
		gen.mark = append(gen.mark, make([]uint32, n*2-len(gen.mark))...)
	}
	gen.epoch++
	if gen.epoch == 0 { // wrapped: clear and restart
		clear(gen.mark)
		gen.epoch = 1
	}
	gen.mark[v] = gen.epoch
	stack := append(gen.tfoStack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Fanouts(x) {
			if gen.mark[w] != gen.epoch && !g.IsDead(w) {
				gen.mark[w] = gen.epoch
				stack = append(stack, w)
			}
		}
	}
	gen.tfoStack = stack[:0]
}

// sasimiAppend scans the popcount-sorted neighbourhood of v for the most
// similar signals (direct or complemented) outside v's transitive fanout
// and appends them to out. The result equals stable-sorting every scanned
// candidate by distance, in scan order, keeping each node's first
// occurrence and cutting to MaxPerNode; a node scanned twice has the same
// distance both times, so dropping repeats at scan time is equivalent.
func (gen *Generator) sasimiAppend(out []LAC, v int32, gain int) []LAC {
	g := gen.g
	s := gen.s
	sw := min(sampleWords, gen.s.Words())
	sampleBits := sw * 64
	if p := s.Patterns(); sampleBits > p {
		sampleBits = p
	}

	if int(v) >= len(gen.rank) || gen.rank[v] < 0 {
		return out
	}
	r := int(gen.rank[v])
	gen.markTFO(v)
	k := gen.opt.MaxPerNode
	best := gen.scored[:0]
	vv := s.Val(v)
	consider := func(i int) {
		if i < 0 || i >= len(gen.signals) {
			return
		}
		u := gen.signals[i]
		if gen.mark[u] == gen.epoch || g.IsDead(u) {
			return
		}
		gen.mark[u] = gen.epoch
		d := 0
		uv := s.Val(u)
		for w := 0; w < sw; w++ {
			d += popcount(vv[w] ^ uv[w])
		}
		c := scoredCand{u, false, d}
		if d > sampleBits-d {
			c = scoredCand{u, true, sampleBits - d}
		}
		// Bounded insertion: a candidate enters only strictly below the
		// k-th distance, behind every kept one of equal distance.
		if len(best) < k {
			best = append(best, c)
		} else if c.dist >= best[k-1].dist {
			return
		}
		j := len(best) - 1
		for ; j > 0 && best[j-1].dist > c.dist; j-- {
			best[j] = best[j-1]
		}
		best[j] = c
	}
	// Same-polarity neighbourhood: similar popcount.
	for off := 1; off <= windowSize; off++ {
		consider(r - off)
		consider(r + off)
	}
	// Complemented candidates live near popcount  (sampleBits - pop(v)):
	// scan that neighbourhood too.
	cpop := sampleBits - gen.pops[r]
	ci := sort.SearchInts(gen.pops, cpop)
	for off := 0; off <= windowSize; off++ {
		consider(ci - off - 1)
		consider(ci + off)
	}
	for _, c := range best {
		out = append(out, LAC{Target: v, NewLit: aig.MakeLit(c.node, c.compl), Gain: gain})
	}
	gen.scored = best[:0]
	return out
}

// Memo carries per-node evaluation results across Evaluate
// calls of one synthesis run, keyed by an explicit epoch. A candidate's
// evaluated error depends on the *global* metric state — the error of the
// whole circuit after applying it — so any applied LAC invalidates every
// memoized evaluation, not just the ones near the change: the owner must
// bump the epoch (Invalidate) after every state change that can affect
// generation or evaluation — an applied LAC (graph, simulation, metric
// state, similarity index), a rollback, or a MaxPerNode adjustment. A node
// is served from the memo only when its entry was stored in the current
// epoch, i.e. when nothing at all changed since it was evaluated; the
// reused NodeBest is then trivially bit-identical to a re-evaluation.
//
// The real reuse window is a dual-phase round boundary that applies
// nothing: when phase 2 exits on its error-budget or self-adaption check
// (rather than by applying its last candidate), the following
// comprehensive pass runs under the exact state of the last phase-2
// evaluation and reuses its S_cand evaluations — including the serial
// candidate generation, which no parallelism can hide.
//
// A memo also holds a metric.Fold for every node given one by KeepFolds:
// the phase-2 targets, re-scored after every apply, whose scoring then
// re-folds only the pattern words whose row, masks or error state changed.
// A fold checks its own validity word by word, so no epoch governs it and
// an apply keeps it. DropFolds recycles them all; the owner drops them
// before each comprehensive pass, so the records cover at most one round's
// candidate set, never every node.
type Memo struct {
	epoch uint64
	stamp []uint64 // per var: epoch of the node's stored evaluation
	best  []NodeBest
	work  []int64 // per var: work estimate of the stored evaluation

	folds []*metric.Fold // per var: the node's fold record, nil if none
	kept  []int32        // the vars holding a fold record
	spare []*metric.Fold // dropped records, recycled by KeepFolds

	wordsReused, wordsRefolded atomic.Int64 // mask words, see metric.State.ScoreBatch
}

// NewMemo returns an empty memo for graphs with numVars variables.
func NewMemo(numVars int) *Memo {
	return &Memo{
		epoch: 1,
		stamp: make([]uint64, numVars),
		best:  make([]NodeBest, numVars),
		work:  make([]int64, numVars),
		folds: make([]*metric.Fold, numVars),
	}
}

// Invalidate starts a new epoch, atomically dropping every memoized
// evaluation. Cheap: entries age out by stamp mismatch. A nil memo (a
// flow that keeps none) has nothing to drop. Fold records stay.
func (m *Memo) Invalidate() {
	if m != nil {
		m.epoch++
	}
}

// fresh reports whether v's stored evaluation is from the current epoch.
func (m *Memo) fresh(v int32) bool { return m != nil && m.stamp[v] == m.epoch }

// KeepFolds gives every node of targets that has none a fold record, so
// that Evaluate scores it change-driven from then on.
func (m *Memo) KeepFolds(targets []int32) {
	for _, v := range targets {
		if m.folds[v] != nil {
			continue
		}
		var f *metric.Fold
		if n := len(m.spare); n > 0 {
			f, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			f = &metric.Fold{}
		}
		m.folds[v] = f
		m.kept = append(m.kept, v)
	}
}

// DropFolds drops every fold record, keeping the buffers for KeepFolds.
// A nil memo has none.
func (m *Memo) DropFolds() {
	if m == nil {
		return
	}
	for _, v := range m.kept {
		f := m.folds[v]
		f.Reset()
		m.spare = append(m.spare, f)
		m.folds[v] = nil
	}
	m.kept = m.kept[:0]
}

// fold returns v's fold record, nil if none.
func (m *Memo) fold(v int32) *metric.Fold {
	if m == nil {
		return nil
	}
	return m.folds[v]
}

// FoldWords returns how many nonzero candidate mask words Evaluate served
// from fold records (reused) and folded afresh into one (refolded), summed
// over the memo's lifetime; none for a nil memo.
func (m *Memo) FoldWords() (reused, refolded int64) {
	if m == nil {
		return 0, 0
	}
	return m.wordsReused.Load(), m.wordsRefolded.Load()
}

// Eval is the evaluated error of one candidate LAC.
type Eval struct {
	LAC
	Err float64 // error of the circuit after applying the LAC (estimated, exact w.r.t. samples)
}

// NodeBest summarises the best LAC of one target node: the paper's E(n) is
// Best.Err − currentError.
type NodeBest struct {
	Node int32
	Best Eval
	N    int // number of candidates evaluated
}

// Evaluate evaluates every candidate LAC for every target that has a CPM
// row and returns per-node bests, sorted by ascending error (ties: larger
// gain first), plus a deterministic work estimate of the evaluation in
// bitvec word operations (the counterpart of cut.Set.Work and
// cpm.Result.Work, used by DP-SA's self-adaption). Candidate generation
// runs serially (it walks shared graph traversal state); evaluation fans
// out over `threads` workers with the pipeline-wide semantics of package
// par (≤0: all CPUs, 1: serial). Results are bit-identical for every
// thread count: each worker evaluates whole targets (scoring only reads
// the metric state) and writes only its target's slot.
//
// With a non-nil memo, targets whose memo entry is from the current epoch
// skip both candidate generation and evaluation and reuse the stored
// NodeBest — bit-identical by the Memo epoch contract — while every freshly
// evaluated target is stored back. A target with a fold record (KeepFolds)
// is scored through it, re-folding only its changed words, with scores
// bit-identical to a memo-less evaluation. The returned work includes reusedWork,
// the recorded work estimate of the reused evaluations: an unchanged state
// implies an identical re-evaluation cost, so charging it keeps the
// deterministic work profile — and with it DP-SA's self-adaption
// trajectory — bit-identical to a memo-less run. hits counts the targets
// served from the memo.
//
// Evaluate stops handing out targets once ctx is cancelled and returns
// ctx.Err() alongside the partial (unsorted, incomplete) bests, which the
// caller must discard.
func Evaluate(ctx context.Context, gen *Generator, res *cpm.Result, st *metric.State, targets []int32, threads int, memo *Memo) (bests []NodeBest, work, reusedWork int64, hits int, err error) {
	// Candidate generation is serial (shared graph traversal state); all
	// targets share one reused buffer, addressed by [start, end) offsets so
	// growth during generation cannot invalidate earlier targets' slices.
	// Memo-fresh targets keep an empty slot: their generation is skipped.
	gen.lacBuf = gen.lacBuf[:0]
	gen.offs = gen.offs[:0]
	for _, v := range targets {
		start := len(gen.lacBuf)
		if res.Has(v) && !memo.fresh(v) {
			gen.lacBuf = gen.appendCandidates(gen.lacBuf, v)
		}
		gen.offs = append(gen.offs, [2]int{start, len(gen.lacBuf)})
	}
	var hits64 int64
	out := make([]NodeBest, len(targets))
	gen.batches = resize(gen.batches, par.ScratchSlots(threads, len(targets)))
	err = par.For(ctx, threads, len(targets), func(w, i int) {
		v := targets[i]
		// Serve memo-fresh targets without scoring anything. The
		// res.Has guard is belt-and-braces: a fresh stamp implies an
		// unchanged state, under which every analysis produces a row for v.
		if memo.fresh(v) && res.Has(v) {
			out[i] = memo.best[v]
			atomic.AddInt64(&work, memo.work[v])
			atomic.AddInt64(&reusedWork, memo.work[v])
			atomic.AddInt64(&hits64, 1)
			return
		}
		cl := gen.lacBuf[gen.offs[i][0]:gen.offs[i][1]]
		nb := NodeBest{Node: v, Best: Eval{Err: -1}, N: len(cl)}
		row := res.Row(v)
		// Charged as one words-wide fused diff–score pass per row entry,
		// per candidate: the cost of scoring each candidate alone, which
		// the batch never exceeds.
		wk := int64(len(cl)) * int64(len(row.POs)) * int64(gen.s.Words())
		b := &gen.batches[w]
		b.ops = b.ops[:0]
		for _, cand := range cl {
			b.ops = append(b.ops, cand.DiffOperands(gen.s))
		}
		b.errs, b.masks = resize(b.errs, len(cl)), resize(b.masks, len(cl))
		if r, rf := st.ScoreBatch(row.POs, row.Diffs, b.ops, b.errs, b.masks, memo.fold(v)); r+rf > 0 {
			memo.wordsReused.Add(int64(r))
			memo.wordsRefolded.Add(int64(rf))
		}
		for c, cand := range cl {
			e := b.errs[c]
			if nb.Best.Err < 0 || e < nb.Best.Err ||
				(e == nb.Best.Err && cand.Gain > nb.Best.Gain) {
				nb.Best = Eval{LAC: cand, Err: e}
			}
		}
		out[i] = nb
		atomic.AddInt64(&work, wk)
		if memo != nil && nb.N > 0 {
			// Distinct targets → distinct slots; race-clean like out[i].
			memo.best[v] = nb
			memo.work[v] = wk
			memo.stamp[v] = memo.epoch
		}
	})
	hits = int(atomic.LoadInt64(&hits64))
	if err != nil {
		return out, work, reusedWork, hits, err
	}
	// Drop targets with no evaluated candidate, sort by error.
	kept := out[:0]
	for _, nb := range out {
		if nb.N > 0 {
			kept = append(kept, nb)
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].Best.Err != kept[b].Best.Err {
			return kept[a].Best.Err < kept[b].Best.Err
		}
		if kept[a].Best.Gain != kept[b].Best.Gain {
			return kept[a].Best.Gain > kept[b].Best.Gain
		}
		return kept[a].Node < kept[b].Node
	})
	return kept, work, reusedWork, hits, nil
}
