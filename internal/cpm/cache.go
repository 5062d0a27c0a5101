package cpm

import (
	"context"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// Update summarises one Rows call: the shared Result the rows live
// in, how many rows the requested closure needed, how many of those were
// served from the cache versus recomputed, and the deterministic work
// estimate of the recomputation (the counterpart of Result.Work for a
// from-scratch build). Reused + Recomputed == Needed. ReusedWork is the
// recompute work the reused rows would have cost: row validity implies
// unchanged construction inputs, so the cost recorded at the row's last
// recompute is exactly what recomputing it now would charge — Work +
// ReusedWork therefore reproduces the deterministic work estimate of a
// from-scratch build of the same closure.
type Update struct {
	Res        *Result
	Needed     int
	Reused     int
	Recomputed int
	Work       int64
	ReusedWork int64
}

// Cache is the disjoint-cut CPM builder, and it is persistent: it retains
// the rows of the last comprehensive (phase-1) analysis across the phase-2
// iterations of the dual-phase framework and recomputes only the rows an
// applied LAC invalidated, instead of rebuilding the closure of S_cand
// from scratch on every iteration (§III-C). Its one build entry point is
// Rows; a fresh cache answers Rows with a from-scratch build.
//
// The lifecycle mirrors the dual-phase loop:
//
//	cache := NewCache(g, s)
//	cache.Rows(ctx, cuts, live, threads)  // phase 1: full CPM
//	for each phase-2 iteration {
//	    // reuse valid rows, recompute stale ones
//	    upd, _ := cache.Rows(ctx, cuts, scand, threads)
//	    … evaluate LACs on upd.Res, apply one …
//	    cache.Invalidate(cs, changed) // after every apply
//	}
//
// Cut-set adoption: row validity is relative to the cut set the rows were
// built against, so a Rows call with any other set drops every row first.
// The single-phase disjoint-cut flows (conventional, AccALS) build a new
// cut set for every analysis, so each of their analyses is a full
// recompute, which recycles the previous analysis's vectors through the
// arena's free list.
//
// Invalidation rule (change signals → dependency closure → recompute set):
// an applied LAC announces itself through two signals the engine already
// produces — the structural aig.ChangeSet of ReplaceWithLit and the
// changed-value variables returned by sim.ResimulateFrom. The nodes whose
// cuts cut.Set.UpdateAfter repairs (S_v) need no signal of their own: S_v
// is the live TFI of the FanoutChanged nodes, which the closure below
// covers. A cached row of node n is stale
// iff one of the inputs of its construction changed: a simulation value
// inside its flip region or on the region's side inputs, its disjoint cut,
// the region's fanout structure, or the row of one of its cut elements.
// Every one of those inputs lives in the transitive fanout of n (cut
// elements, region members, PO-cone drivers) or is a fanin of a region
// member, so the stale set is covered by the transitive-fanin closure of
//
//	roots = Removed ∪ FanoutChanged ∪ Rewired ∪ changed ∪ fanouts(changed)
//
// walked through dead nodes as well (a removed MFFC preserves its fanin
// literals, and pre-change regions reached the removed nodes). Because the
// closure is transitive, it is automatically closed under the reverse of
// the disjoint-cut dependency Rows follows: if a cut element's row is
// stale, every consumer lies in the element's fanin closure too.
//
// All diff vectors live on one arena with a free list: vectors of invalidated
// rows are recycled, not reallocated, so steady-state phase-2 iterations
// allocate near zero. Results are bit-identical to a fresh cache's build
// over the same cut set for every thread count.
//
// A Cache is not safe for concurrent use; its methods must be called from
// one goroutine (the internal wave fan-out is race-clean).
type Cache struct {
	g     *aig.Graph
	s     *sim.Sim
	cuts  *cut.Set
	res   *Result
	arena *bitvec.Arena

	valid   []bool     // per var: row is up to date
	idx     *topoIndex // refreshed by every Rows call
	rowWork []int64    // per var: work of the row's last recompute (Update.ReusedWork)

	rss []*regionSimulator // persistent per-worker scratch

	// epoch-stamped scratch (avoids per-call maps and clears)
	mark      []uint32
	epoch     uint32
	queue     []int32 // Invalidate BFS / Rows closure scratch
	recompute []int32 // Rows recompute-set scratch
	lvl       []int32 // wave levels, meaningful only under inSet
	inSet     []bool  // recompute-set membership during runWaves
}

// NewCache returns an empty cache for g simulated by s.
func NewCache(g *aig.Graph, s *sim.Sim) *Cache {
	n := g.NumVars()
	return &Cache{
		g:       g,
		s:       s,
		res:     &Result{Words: s.Words(), rows: make([]Row, n)},
		arena:   bitvec.NewArena(s.Words()),
		valid:   make([]bool, n),
		idx:     &topoIndex{pos: make([]int32, n)},
		rowWork: make([]int64, n),
		mark:    make([]uint32, n),
		lvl:     make([]int32, n),
		inSet:   make([]bool, n),
	}
}

// Arena exposes the diff-vector arena (for allocation-reuse introspection).
func (c *Cache) Arena() *bitvec.Arena { return c.arena }

// releaseRow marks v's row stale, recycles its diff vectors into the arena
// and leaves an empty row with retained slice capacity, so that a later
// recompute appends onto a clean row.
func (c *Cache) releaseRow(v int32) {
	row := &c.res.rows[v]
	for i, d := range row.Diffs {
		c.arena.Put(d)
		row.Diffs[i] = nil
	}
	row.POs = row.POs[:0]
	row.Diffs = row.Diffs[:0]
	c.valid[v] = false
}

// simulators returns (growing if needed) the first `workers` persistent
// region simulators. They share c.idx, which Rows refreshes in place, so
// they stay consistent after structural edits.
func (c *Cache) simulators(workers int) []*regionSimulator {
	for len(c.rss) < workers {
		c.rss = append(c.rss, newRegionSimulator(c.g, c.s, c.idx))
	}
	return c.rss[:workers]
}

// Invalidate marks every row the applied LAC may have changed as stale and
// recycles its vectors. cs is the ChangeSet of the replacement and changed
// the variables sim.ResimulateFrom reported as value-changed (the slice is
// only read during the call, so the simulator-owned scratch may be passed
// directly). The nodes whose cuts cut.Set.UpdateAfter repaired (S_v, the
// live TFI of the live cs.FanoutChanged nodes) need no argument of their
// own: those nodes are roots of the fanin closure below. Must be called
// after the simulator and the cut set have been brought up to date.
func (c *Cache) Invalidate(cs aig.ChangeSet, changed []int32) {
	ep := nextEpoch(&c.epoch, c.mark)
	q := c.queue[:0]
	push := func(v int32) {
		if c.mark[v] != ep {
			c.mark[v] = ep
			q = append(q, v)
		}
	}
	for _, v := range cs.Removed {
		push(v)
	}
	for _, v := range cs.FanoutChanged {
		push(v)
	}
	for _, v := range cs.Rewired {
		push(v)
	}
	for _, v := range changed {
		// A changed value invalidates regions containing v AND regions
		// where v is only a side input — the latter lie in the fanin
		// closure of v's fanouts.
		push(v)
		for _, f := range c.g.Fanouts(v) {
			push(f)
		}
	}
	// Transitive-fanin closure, walked through dead nodes too: a removed
	// node keeps its fanin literals, and the pre-change region of a stale
	// row may have passed through it.
	for i := 0; i < len(q); i++ {
		v := q[i]
		if c.g.Type(v) != aig.TypeAnd {
			continue
		}
		f0, f1 := c.g.Fanins(v)
		push(f0.Var())
		push(f1.Var())
	}
	for _, v := range q {
		c.releaseRow(v)
	}
	c.queue = q[:0]
}

// Rows ensures valid rows for the disjoint-cut closure of targets (§III-C
// N(S_cand): the targets plus, transitively, the non-sink elements of
// their disjoint cuts) and returns the shared Result plus reuse
// accounting. Passing every live AND node gives the full CPM.
//
// Cut-set adoption: when cuts is not the set the cache was last built
// against, Rows first drops every cached row and adopts cuts; otherwise
// it keeps the rows still valid since the last call. Either way it then
// recomputes only the stale rows of the closure, so the rows equal those
// of a fresh cache's Rows(ctx, cuts, targets, threads), bit for bit and
// for every thread count.
//
// threads follows the pipeline-wide semantics of package par (≤0: all
// CPUs, 1: serial). The build checks ctx at every wave boundary and stops
// early once it is cancelled, returning ctx.Err(). The rows this call
// recomputed are then released again and the Update must be discarded,
// while rows that were valid before the call stay valid; an adopted cut
// set stays adopted.
func (c *Cache) Rows(ctx context.Context, cuts *cut.Set, targets []int32, threads int) (Update, error) {
	if cuts != c.cuts {
		c.cuts = cuts
		for v := range c.res.rows {
			c.releaseRow(int32(v))
		}
	}
	c.idx.refresh(c.g)
	workBefore := c.res.Work

	// Closure of targets under disjoint-cut membership (sinks excluded),
	// with epoch-stamped scratch instead of per-call maps.
	ep := nextEpoch(&c.epoch, c.mark)
	need := c.queue[:0]
	for _, v := range targets {
		if c.mark[v] != ep {
			c.mark[v] = ep
			need = append(need, v)
		}
	}
	for i := 0; i < len(need); i++ {
		for _, e := range c.cuts.Cut(need[i]) {
			if !cut.IsSink(e) && c.mark[e] != ep {
				c.mark[e] = ep
				need = append(need, e)
			}
		}
	}
	proc := c.recompute[:0]
	var reusedWork int64
	for _, v := range need {
		if !c.valid[v] {
			proc = append(proc, v)
		} else {
			reusedWork += c.rowWork[v]
		}
	}
	err := c.runWaves(ctx, proc, threads)
	upd := Update{
		Res:        c.res,
		Needed:     len(need),
		Reused:     len(need) - len(proc),
		Recomputed: len(proc),
		Work:       c.res.Work - workBefore,
		ReusedWork: reusedWork,
	}
	c.queue = need[:0]
	c.recompute = proc[:0]
	return upd, err
}

// runWaves recomputes the given stale rows over the wave scheduler of
// package par and marks them valid. Rows outside the set are read-only
// dependencies; within the set, a node is scheduled strictly after its
// non-sink cut elements. Workers communicate only through index-addressed
// rows: each row is written by exactly one worker and read only after its
// dependency wave completed.
//
// On cancellation it stops at the next wave boundary and releases every
// row of the set again — a cancelled wave leaves some rows complete and
// some untouched, and releasing them all restores the invariant that a
// non-valid row is empty.
func (c *Cache) runWaves(ctx context.Context, proc []int32, threads int) error {
	if len(proc) == 0 {
		return nil
	}
	workers := par.ScratchSlots(threads, len(proc))
	rss := c.simulators(workers)
	rss[0].orderByPos(proc, true)
	for _, v := range proc {
		c.inSet[v] = true
	}
	// Wave levels over the in-set dependency DAG: cut elements lie in the
	// transitive fanout, i.e. earlier in the descending-position order, so
	// one forward sweep suffices. Valid (out-of-set) elements are done
	// dependencies and contribute no level.
	var numLvl int32
	for _, v := range proc {
		var l int32
		for _, e := range c.cuts.Cut(v) {
			if !cut.IsSink(e) && c.inSet[e] && c.lvl[e] >= l {
				l = c.lvl[e] + 1
			}
		}
		c.lvl[v] = l
		if l+1 > numLvl {
			numLvl = l + 1
		}
	}
	waves := make([][]int32, numLvl)
	for _, v := range proc {
		waves[c.lvl[v]] = append(waves[c.lvl[v]], v)
	}
	var err error
	for _, wave := range waves {
		if err = par.ForEach(ctx, threads, wave, func(w int, v int32) {
			c.processNode(rss[w], v)
		}); err != nil {
			break
		}
	}
	for _, v := range proc {
		c.inSet[v] = false
		if err != nil {
			c.releaseRow(v)
		} else {
			c.valid[v] = true
		}
	}
	return err
}

// processNode computes the CPM row of v and records its work. All of v's
// non-sink cut elements must already have their rows computed (wave
// scheduling guarantees this).
func (c *Cache) processNode(rs *regionSimulator, v int32) {
	elems := c.cuts.Cut(v)
	if len(elems) == 0 {
		c.rowWork[v] = 0
		return // reaches no PO: a flip can never be observed
	}
	words := c.res.Words
	// Flip-simulate the region bounded by the node cut elements. Sink
	// elements leave their whole PO cone inside the region, so the
	// diff at the PO driver is available directly.
	rs.markBoundary(elems)
	rs.collectBounded(v)
	rs.propagate(v)
	// Work accounting: one words-wide pass per region node simulated and
	// per diff vector assembled; folded in with one atomic add per node.
	w := int64(1+len(rs.region)) * int64(words)
	// Assemble the row: Eq. (1) per covered PO. The entry count is known
	// up front (one per sink, one per element-row PO), so a fresh or
	// undersized row grows with exactly one allocation per slice instead
	// of doubling its way up.
	row := &c.res.rows[v]
	total := 0
	for _, e := range elems {
		if cut.IsSink(e) {
			total++
		} else {
			total += len(c.res.rows[e].POs)
		}
	}
	if cap(row.POs) < total {
		row.POs = make([]int32, 0, total)
	}
	if cap(row.Diffs) < total {
		row.Diffs = make([]bitvec.Vec, 0, total)
	}
	for _, e := range elems {
		if cut.IsSink(e) {
			// A sink is a universal one-cut: P[v,o] is the Boolean
			// difference observed at the PO driver (all-ones when v
			// drives o itself).
			o := cut.SinkPO(e)
			d := c.arena.Alloc()
			rs.diffAt(c.g.PO(o).Var(), d)
			row.POs = append(row.POs, int32(o))
			row.Diffs = append(row.Diffs, d)
			w += int64(words)
			continue
		}
		local := rs.localDiff()
		rs.diffAt(e, local)
		erow := &c.res.rows[e]
		w += int64(1+len(erow.POs)) * int64(words)
		for i, o := range erow.POs {
			d := c.arena.Alloc()
			d.And(erow.Diffs[i], local)
			row.POs = append(row.POs, o)
			row.Diffs = append(row.Diffs, d)
		}
	}
	c.rowWork[v] = w // single writer per node, like the row itself
	atomic.AddInt64(&c.res.Work, w)
}
