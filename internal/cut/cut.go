// Package cut computes the closest disjoint cuts used for efficient change
// propagation matrix construction (SEALS [20], as adopted by the dual-phase
// framework), and updates them incrementally after a local approximate
// change using the cut preservation condition of paper §III-B.
//
// A disjoint cut of node n is a set of one-cuts — one per primary output
// reachable from n — whose transitive fanout cones are pairwise disjoint.
// Primary outputs are modelled as virtual sink elements so that a node
// directly driving a PO has that sink in its cut.
//
// Construction invariant: in any valid disjoint cut, element t covers
// exactly Reach(t), the POs reachable from t. A set of elements is
// therefore a valid disjoint cut iff their Reach sets partition Reach(n)
// and every n→PO path passes the element covering that PO. The builder
// starts from the immediate successors of n and repeatedly raises any two
// elements with overlapping Reach to their own cut elements until all
// Reach sets are pairwise disjoint; the loop terminates because elements
// only move toward the POs.
package cut

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/par"
)

// EncodeSink encodes PO index o as a cut element.
func EncodeSink(o int) int32 { return -1 - int32(o) }

// IsSink reports whether a cut element is a virtual PO sink.
func IsSink(e int32) bool { return e < 0 }

// SinkPO returns the PO index of a sink element.
func SinkPO(e int32) int { return int(-1 - e) }

// Set holds the disjoint cuts and PO-reachability bitsets of every live AND
// node of a graph.
type Set struct {
	g       *aig.Graph
	poWords int

	reach []bitvec.Vec // per var: POs reachable; nil when not computed
	cuts  [][]int32    // per var: disjoint cut elements

	// Sync tracking for the cross-round warm start: the set is in sync
	// with the graph iff every structural change since the last full build
	// was repaired by UpdateAfter. synced is recorded alongside the graph
	// version after an uncancelled build and after every repair; any
	// unrepaired graph edit bumps the version and breaks the match.
	synced      bool
	syncVersion uint64

	// scratch
	tmp        bitvec.Vec
	pos        []int32       // UpdateAfter scratch: topo position per var (-1: not live)
	posBits    []uint64      // UpdateAfter scratch: S_v as a bitmap over topo positions
	scr        []*cutScratch // per-worker recompute scratch, indexed by par worker id
	reachArena *bitvec.Arena // slab backing for reach bitsets; never reset

	work     int64   // atomic: cumulated work estimate in bitset word operations
	nodeWork []int64 // per var: work of the node's last recompute (see FullBuildWork)
}

// Work returns the cumulated deterministic work estimate of all cut
// (re)computations on this set, in bitset word operations. Unlike wall-clock
// time it is identical between runs regardless of thread count, machine, or
// load; DP-SA's self-adaption profiles the analysis steps with it.
func (s *Set) Work() int64 { return atomic.LoadInt64(&s.work) }

// InSync reports whether the set reflects the graph's current structure:
// true after an uncancelled full build or an UpdateAfter repair, false once
// the graph changed without a matching repair. A comprehensive pass may
// warm-start from an in-sync set instead of rebuilding; an out-of-sync set
// must be rebuilt (the correctness fallback when the incremental repair
// chain was broken, e.g. by a rollback or a cancelled build).
func (s *Set) InSync() bool { return s.synced && s.g.Version() == s.syncVersion }

// markSynced records that the set matches the graph's current structure.
func (s *Set) markSynced() {
	s.synced = true
	s.syncVersion = s.g.Version()
}

// ForceSync marks the set as in sync without repairing it. This is a fault
// injection hook (internal/fault's skip-cut-warm-update): skipping an
// UpdateAfter would normally break the version match and make the next
// warm start fall back to a cold rebuild, masking the seeded bug — forcing
// the sync marker keeps the stale cuts trusted, which is exactly the bug
// class the differential campaign must detect. Never called in production.
func (s *Set) ForceSync() { s.markSynced() }

// FullBuildWork returns the deterministic work estimate a from-scratch
// build of the current graph's cuts would cost, computed as the sum of the
// recorded per-node recompute costs over the live AND nodes. For an
// in-sync set this equals NewSet's work exactly: a node untouched since
// its last recompute has unchanged successors (else it would lie in some
// repaired S_v cone), so recomputing it would repeat the recorded work.
// Warm-started passes charge this figure to Stats.CutWork so the
// DP-SA self-adaption trajectory is bit-identical to a cold run's.
func (s *Set) FullBuildWork() int64 {
	var w int64
	for _, v := range s.g.Topo() {
		if s.g.IsAnd(v) {
			w += s.nodeWork[v]
		}
	}
	return w
}

// NewSet computes the disjoint cuts of all nodes of g. threads follows the
// pipeline-wide semantics of package par (≤0: all CPUs, 1: serial); the
// result is identical for every thread count. The build checks ctx at wave
// boundaries (and per node at one worker) and stops early once it is
// cancelled, returning the partial set alongside ctx.Err(). A non-nil
// error means the set is incomplete and must be discarded.
func NewSet(ctx context.Context, g *aig.Graph, threads int) (*Set, error) {
	s := &Set{
		g:       g,
		poWords: bitvec.Words(g.NumPOs()),
	}
	if s.poWords > 0 { // a PO-less graph has empty reach bitsets: nothing to back
		s.reachArena = bitvec.NewArena(s.poWords)
	}
	s.grow()
	s.tmp = bitvec.NewWords(s.poWords)
	// recompute(v) only reads state of nodes in v's transitive fanout and
	// only writes v's own entries, so the nodes of one reverse-topological
	// level are independent: fan each level out, with a barrier between
	// levels so fanout-side cuts are complete (and visible) before use.
	// Worker ids are stable per goroutine, so each worker owns its scratch.
	scr := s.scratchFor(par.Workers(threads))
	for _, level := range g.ReverseLevels() {
		if err := par.ForEach(ctx, threads, level, func(w int, v int32) { s.recompute(scr[w], v) }); err != nil {
			return s, err
		}
	}
	s.markSynced()
	return s, nil
}

func (s *Set) grow() {
	n := s.g.NumVars()
	if len(s.reach) < n {
		r := make([]bitvec.Vec, n)
		copy(r, s.reach)
		s.reach = r
		c := make([][]int32, n)
		copy(c, s.cuts)
		s.cuts = c
		w := make([]int64, n)
		copy(w, s.nodeWork)
		s.nodeWork = w
	}
}

// Graph returns the underlying graph.
func (s *Set) Graph() *aig.Graph { return s.g }

// Cut returns the disjoint cut elements of node v (vars ≥ 0, encoded sinks
// < 0). The slice is owned by the set.
func (s *Set) Cut(v int32) []int32 { return s.cuts[v] }

// Reach returns the PO-reachability bitset of node v. The vector is owned
// by the set and is nil for nodes that reach no PO.
func (s *Set) Reach(v int32) bitvec.Vec { return s.reach[v] }

// reachOf returns the reachability set of a cut element, using scratch sink
// storage for sinks (the returned vector is only valid until the next call
// with a sink).
func (s *Set) reachOf(e int32, scratch bitvec.Vec) bitvec.Vec {
	if IsSink(e) {
		scratch.Clear()
		scratch.Set(SinkPO(e), true)
		return scratch
	}
	return s.reach[e]
}

// elemsIntersect reports whether two cut elements can reach a common PO.
func (s *Set) elemsIntersect(a, b int32) bool {
	switch {
	case IsSink(a) && IsSink(b):
		return a == b
	case IsSink(a):
		return s.reach[b] != nil && s.reach[b].Get(SinkPO(a))
	case IsSink(b):
		return s.reach[a] != nil && s.reach[a].Get(SinkPO(b))
	default:
		if s.reach[a] == nil || s.reach[b] == nil {
			return false
		}
		return s.reach[a].Intersects(s.reach[b])
	}
}

// firstConflict returns the first pair (i < j), in lexicographic order,
// of elements whose Reach sets overlap, or (-1, -1) when they are pairwise
// disjoint. One backward pass keeps the union of the Reach sets after i
// (a sink counts as its one PO, a nil reach as empty): the smallest i
// whose Reach meets it is the pair's i, and its j is the first later
// element that overlaps element i. The pass stops at lo, below which no
// element may overlap any other: recompute passes the i of its previous
// round, since the elements before it overlapped nothing and a raise only
// appends elements that cover part of the two it removes.
func (s *Set) firstConflict(sc *cutScratch, elems []int32, lo int) (int, int) {
	if sc.union == nil {
		sc.union = bitvec.NewWords(s.poWords)
	}
	u := sc.union
	u.Clear()
	ci := -1
	for i := len(elems) - 1; i >= lo; i-- {
		if e := elems[i]; IsSink(e) {
			if u.Get(SinkPO(e)) {
				ci = i
			}
			u.Set(SinkPO(e), true)
		} else if r := s.reach[e]; r != nil {
			if u.Intersects(r) {
				ci = i
			}
			u.OrWith(r)
		}
	}
	if ci < 0 {
		return -1, -1
	}
	for j := ci + 1; ; j++ {
		if s.elemsIntersect(elems[ci], elems[j]) {
			return ci, j
		}
	}
}

// cutScratch is the per-worker scratch of recompute: a reused element
// buffer plus epoch-stamped dedup marks for node and sink elements. It
// replaces the per-call maps that dominated cut-update allocations; one
// scratch belongs to exactly one par worker at a time.
type cutScratch struct {
	elems    []int32
	varMark  []uint32 // per var, stamped with epoch
	sinkMark []uint32 // per PO index, stamped with epoch
	epoch    uint32
	one      [1]int32   // backing for a sink's single-element expansion
	union    bitvec.Vec // firstConflict's running union of Reach sets
}

// nextEpoch starts a fresh dedup set (growing the mark arrays as needed).
func (sc *cutScratch) nextEpoch(numVars, numPOs int) {
	if len(sc.varMark) < numVars {
		sc.varMark = append(sc.varMark, make([]uint32, numVars*2-len(sc.varMark))...)
	}
	if len(sc.sinkMark) < numPOs {
		sc.sinkMark = append(sc.sinkMark, make([]uint32, numPOs*2-len(sc.sinkMark))...)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear and restart
		for i := range sc.varMark {
			sc.varMark[i] = 0
		}
		for i := range sc.sinkMark {
			sc.sinkMark[i] = 0
		}
		sc.epoch = 1
	}
}

// mark records element e in the current epoch and reports whether it was
// already recorded.
func (sc *cutScratch) mark(e int32) bool {
	m := sc.varMark
	i := e
	if IsSink(e) {
		m = sc.sinkMark
		i = int32(SinkPO(e))
	}
	if m[i] == sc.epoch {
		return true
	}
	m[i] = sc.epoch
	return false
}

// unmark drops element e from the current epoch's dedup set.
func (sc *cutScratch) unmark(e int32) {
	if IsSink(e) {
		sc.sinkMark[SinkPO(e)] = 0
	} else {
		sc.varMark[e] = 0
	}
}

// scratchFor returns (growing if needed) the first `workers` recompute
// scratches.
func (s *Set) scratchFor(workers int) []*cutScratch {
	for len(s.scr) < workers {
		s.scr = append(s.scr, &cutScratch{})
	}
	return s.scr[:workers]
}

// successors appends the deduplicated immediate successor elements of v —
// live fanout nodes plus sinks for directly driven POs — to sc.elems.
func (s *Set) successors(sc *cutScratch, v int32) []int32 {
	sc.nextEpoch(s.g.NumVars(), s.g.NumPOs())
	elems := sc.elems[:0]
	for _, f := range s.g.Fanouts(v) {
		if !s.g.IsDead(f) && !sc.mark(f) {
			elems = append(elems, f)
		}
	}
	for o, po := range s.g.POs() {
		if po.Var() == v {
			e := EncodeSink(o)
			if !sc.mark(e) {
				elems = append(elems, e)
			}
		}
	}
	return elems
}

// recompute rebuilds reach and cut of node v from its successors, whose
// cuts must already be valid, using sc as worker-private scratch.
func (s *Set) recompute(sc *cutScratch, v int32) {
	elems := s.successors(sc, v)
	// Work accounting: the reach union costs one poWords pass per
	// successor, conflict resolution one poWords pass per element pair it
	// rules on (below); counted locally and folded in with a single atomic
	// add at the end (a deferred closure would heap-allocate once per call).
	w := int64(1+len(elems)) * int64(s.poWords)

	// Reachability: union over successors.
	if s.reach[v] == nil {
		if s.reachArena != nil {
			s.reach[v] = s.reachArena.Alloc()
		} else {
			s.reach[v] = bitvec.NewWords(s.poWords)
		}
	}
	s.reach[v].Clear() // arena rows hold garbage; always start from zero
	for _, e := range elems {
		if IsSink(e) {
			s.reach[v].Set(SinkPO(e), true)
		} else if s.reach[e] != nil {
			s.reach[v].OrWith(s.reach[e])
		}
	}

	// Drop successors that reach no PO (dangling side branches).
	kept := elems[:0]
	for _, e := range elems {
		if IsSink(e) || (s.reach[e] != nil && !s.reach[e].IsZero()) {
			kept = append(kept, e)
		}
	}
	elems = kept

	// Conflict resolution: raise overlapping elements to their own cuts
	// until all Reach sets are pairwise disjoint. Each round raises the
	// first overlapping pair in lexicographic order and charges poWords for
	// every pair (i < j) up to and including it, as a pair-by-pair scan
	// would; the conflict-free round charges every pair.
	for lo := 0; ; {
		n := len(elems)
		ci, cj := s.firstConflict(sc, elems, lo)
		if ci < 0 {
			w += int64(n*(n-1)/2) * int64(s.poWords)
			break
		}
		w += int64(ci*(n-1)-ci*(ci-1)/2+cj-ci) * int64(s.poWords)
		lo = ci
		ei, ej := elems[ci], elems[cj]
		// Remove both (cj > ci). The marks still hold exactly the listed
		// elements plus the dropped dangling successors, which reach no PO
		// and so never appear in a cut.
		elems = append(elems[:cj], elems[cj+1:]...)
		elems = append(elems[:ci], elems[ci+1:]...)
		sc.unmark(ei)
		sc.unmark(ej)
		for _, raised := range [2]int32{ei, ej} {
			src := sc.one[:0]
			if IsSink(raised) {
				src = append(src, raised) // a sink expands to itself
			} else {
				src = s.cuts[raised]
			}
			for _, e := range src {
				if !sc.mark(e) {
					elems = append(elems, e)
				}
			}
		}
	}
	sc.elems = elems[:0]
	s.cuts[v] = append(s.cuts[v][:0], elems...)
	s.nodeWork[v] = w // single writer per node, like cuts[v]
	atomic.AddInt64(&s.work, w)
}

// UpdateAfter incrementally repairs the cut set after a replacement,
// following paper §III-B: S_c is taken from the ChangeSet, the violating
// set S_v is the union of the live transitive fanin cones of S_c, and only
// those nodes are recomputed (in reverse topological order). It returns the
// recomputed node set.
func (s *Set) UpdateAfter(cs aig.ChangeSet) []int32 {
	s.grow()
	for _, r := range cs.Removed {
		s.cuts[r] = nil
		s.reach[r] = nil
	}
	// S_v: TFI cones of the surviving S_c members. Fanins of removed nodes
	// are themselves in FanoutChanged (their fanout lists shrank), so the
	// cones below removed nodes are covered.
	roots := make([]int32, 0, len(cs.FanoutChanged))
	for _, v := range cs.FanoutChanged {
		if !s.g.IsDead(v) {
			roots = append(roots, v)
		}
	}
	cone := s.g.TFICone(roots)
	// Order S_v by descending topological position without comparisons,
	// as cpm orders its regions: each live AND node of the cone sets the
	// bit of its position, and walking the set bits from the highest word
	// down yields the order of a sort by position, positions being unique.
	// The position table is a reused flat slice (-1: not in the live
	// order) because this runs once per applied LAC.
	topo := s.g.Topo()
	if len(s.pos) < s.g.NumVars() {
		s.pos = make([]int32, s.g.NumVars())
	}
	pos := s.pos
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range topo {
		pos[v] = int32(i)
	}
	if n := (len(topo) + 63) >> 6; len(s.posBits) < n {
		s.posBits = make([]uint64, n)
	}
	set := s.posBits
	lo, hi, n := len(set), -1, 0
	for _, v := range cone {
		if p := pos[v]; p >= 0 && s.g.IsAnd(v) {
			w := int(p >> 6)
			set[w] |= 1 << (p & 63)
			lo, hi, n = min(lo, w), max(hi, w), n+1
		}
	}
	sv := make([]int32, 0, n)
	for w := hi; w >= lo; w-- {
		for b := set[w]; b != 0; {
			k := 63 - bits.LeadingZeros64(b)
			b &^= 1 << k
			sv = append(sv, topo[w<<6|k])
		}
		set[w] = 0
	}
	sc := s.scratchFor(1)[0]
	for _, v := range sv {
		s.recompute(sc, v)
	}
	s.markSynced()
	return sv
}

// Validate checks every cut for the three defining properties: the element
// Reach sets partition Reach(n); every element is a one-cut (verified by a
// path search that avoids the element); and reachability bitsets are
// consistent with the graph. Intended for tests; cost is O(Y²·E).
func (s *Set) Validate() error {
	g := s.g
	drivers := map[int32][]int{}
	for o, po := range g.POs() {
		drivers[po.Var()] = append(drivers[po.Var()], o)
	}
	for _, v := range g.Topo() {
		if !g.IsAnd(v) {
			continue
		}
		// Reference reachability by DFS.
		ref := bitvec.NewWords(s.poWords)
		stack := []int32{v}
		seen := map[int32]bool{v: true}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, o := range drivers[x] {
				ref.Set(o, true)
			}
			for _, f := range g.Fanouts(x) {
				if !g.IsDead(f) && !seen[f] {
					seen[f] = true
					stack = append(stack, f)
				}
			}
		}
		if s.reach[v] == nil {
			if !ref.IsZero() {
				return fmt.Errorf("node %d: reach not computed but POs reachable", v)
			}
			continue
		}
		if !s.reach[v].Equal(ref) {
			return fmt.Errorf("node %d: reach mismatch", v)
		}
		// Partition check.
		union := bitvec.NewWords(s.poWords)
		scratch := bitvec.NewWords(s.poWords)
		for _, e := range s.cuts[v] {
			re := s.reachOf(e, scratch)
			if re == nil {
				return fmt.Errorf("node %d: element %d has no reach", v, e)
			}
			if union.Intersects(re) {
				return fmt.Errorf("node %d: cut elements overlap at element %d", v, e)
			}
			union.OrWith(re)
		}
		if !union.Equal(ref) {
			return fmt.Errorf("node %d: cut covers %v, want %v", v, union, ref)
		}
		// One-cut property: for each node element t, no n→PO path for a PO
		// in Reach(t) may avoid t.
		for _, e := range s.cuts[v] {
			if IsSink(e) {
				continue // trivially a one-cut of its own PO
			}
			avoid := e
			reached := bitvec.NewWords(s.poWords)
			stack := []int32{v}
			seen := map[int32]bool{v: true, avoid: true}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, o := range drivers[x] {
					reached.Set(o, true)
				}
				for _, f := range g.Fanouts(x) {
					if !g.IsDead(f) && !seen[f] {
						seen[f] = true
						stack = append(stack, f)
					}
				}
			}
			if reached.Intersects(s.reach[avoid]) {
				return fmt.Errorf("node %d: element %d is not a one-cut", v, avoid)
			}
		}
	}
	return nil
}
