package cpm

import (
	"context"
	"sort"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// Update summarises one Cache operation: the shared Result the rows live
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

// Cache is a persistent incremental CPM: it retains the rows of the last
// comprehensive (phase-1) analysis across the phase-2 iterations of the
// dual-phase framework and recomputes only the rows an applied LAC
// invalidated, instead of rebuilding the closure of S_cand from scratch on
// every iteration (§III-C).
//
// The lifecycle mirrors the dual-phase loop:
//
//	cache := NewCache(g, s)
//	cache.Rebuild(ctx, cuts, threads)             // phase 1: full CPM
//	for each phase-2 iteration {
//	    upd, _ := cache.Rows(ctx, scand, threads) // reuse + recompute dirty
//	    … evaluate LACs on upd.Res, apply one …
//	    cache.Invalidate(cs, changed, sv)         // after every apply
//	}
//
// The single-phase disjoint-cut flows (conventional, AccALS) use only the
// first step: every analysis is a Rebuild, which recycles the previous
// analysis's vectors through the pool.
//
// Invalidation rule (change signals → dependency closure → recompute set):
// an applied LAC announces itself through three signals the engine already
// produces — the structural aig.ChangeSet of ReplaceWithLit, the
// changed-value variables returned by sim.ResimulateFrom, and the cut set
// S_v recomputed by cut.Set.UpdateAfter. A cached row of node n is stale
// iff one of the inputs of its construction changed: a simulation value
// inside its flip region or on the region's side inputs, its disjoint cut,
// the region's fanout structure, or the row of one of its cut elements.
// Every one of those inputs lives in the transitive fanout of n (cut
// elements, region members, PO-cone drivers) or is a fanin of a region
// member, so the stale set is covered by the transitive-fanin closure of
//
//	roots = Removed ∪ FanoutChanged ∪ Rewired ∪ S_v
//	      ∪ changed ∪ fanouts(changed)
//
// walked through dead nodes as well (a removed MFFC preserves its fanin
// literals, and pre-change regions reached the removed nodes). Because the
// closure is transitive, it is automatically closed under the reverse of
// the disjoint-cut dependency used by Closure: if a cut element's row is
// stale, every consumer lies in the element's fanin closure too.
//
// All diff vectors are backed by a free-list pool: vectors of invalidated
// rows are recycled, not reallocated, so steady-state phase-2 iterations
// allocate near zero. Results are bit-identical to a from-scratch
// BuildDisjoint over the same cut set for every thread count.
//
// A Cache is not safe for concurrent use; its methods must be called from
// one goroutine (the internal wave fan-out is race-clean).
type Cache struct {
	g    *aig.Graph
	s    *sim.Sim
	cuts *cut.Set
	res  *Result
	pool *bitvec.Pool

	valid   []bool  // per var: row is up to date
	pos     []int32 // topo position per var, refreshed per build
	rowWork []int64 // per var: work of the row's last recompute (Update.ReusedWork)

	rss     []*regionSimulator // persistent per-worker scratch
	cutSets []map[int32]bool

	// epoch-stamped scratch (avoids per-call maps and clears)
	mark      []uint32
	epoch     uint32
	queue     []int32 // Invalidate BFS / Rows closure scratch
	recompute []int32 // Rows recompute-set scratch
	lvl       []int32 // wave levels, meaningful only under inSet
	inSet     []bool  // recompute-set membership during runWaves
}

// NewCache returns an empty cache for g simulated by s. Rebuild must run
// before the first Rows call.
func NewCache(g *aig.Graph, s *sim.Sim) *Cache {
	n := g.NumVars()
	return &Cache{
		g:       g,
		s:       s,
		res:     &Result{Words: s.Words(), rows: make([]Row, n)},
		pool:    bitvec.NewPool(s.Words()),
		valid:   make([]bool, n),
		pos:     make([]int32, n),
		rowWork: make([]int64, n),
		mark:    make([]uint32, n),
		lvl:     make([]int32, n),
		inSet:   make([]bool, n),
	}
}

// Pool exposes the diff-vector pool (for allocation-reuse introspection).
func (c *Cache) Pool() *bitvec.Pool { return c.pool }

// releaseRow recycles the diff vectors of v's row into the pool and leaves
// an empty row with retained slice capacity.
func (c *Cache) releaseRow(v int32) {
	row := &c.res.rows[v]
	for i, d := range row.Diffs {
		c.pool.Put(d)
		row.Diffs[i] = nil
	}
	row.POs = row.POs[:0]
	row.Diffs = row.Diffs[:0]
	c.valid[v] = false
}

func (c *Cache) nextEpoch() uint32 {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.mark {
			c.mark[i] = 0
		}
		c.epoch = 1
	}
	return c.epoch
}

func (c *Cache) refreshPos() {
	for i, v := range c.g.Topo() {
		c.pos[v] = int32(i)
	}
}

// simulators returns (growing if needed) the first `workers` persistent
// region simulators. They share c.pos, whose contents refreshPos updates in
// place, so they stay consistent after structural edits.
func (c *Cache) simulators(workers int) ([]*regionSimulator, []map[int32]bool) {
	for len(c.rss) < workers {
		c.rss = append(c.rss, newRegionSimulator(c.g, c.s, c.pos))
		c.cutSets = append(c.cutSets, make(map[int32]bool))
	}
	return c.rss[:workers], c.cutSets[:workers]
}

// Rebuild performs the comprehensive (phase-1) build: every live AND row is
// recomputed against cuts and retained. Previously cached vectors are
// recycled through the pool first, so repeated rounds reuse the same
// backing memory. The produced rows are bit-identical to
// BuildDisjoint(ctx, g, s, cuts, nil, threads).
//
// The build checks ctx at every wave boundary and stops early once it is
// cancelled, returning ctx.Err(). On cancellation every row touched by this
// build is released again (the cache is left consistent, holding no valid
// rows), so the returned Update must be discarded.
func (c *Cache) Rebuild(ctx context.Context, cuts *cut.Set, threads int) (Update, error) {
	c.cuts = cuts
	for v := range c.res.rows {
		if len(c.res.rows[v].Diffs) > 0 {
			c.releaseRow(int32(v))
		} else {
			c.valid[int32(v)] = false
		}
	}
	c.refreshPos()
	workBefore := c.res.Work
	proc := c.recompute[:0]
	for _, v := range c.g.Topo() {
		if c.g.IsAnd(v) {
			proc = append(proc, v)
		}
	}
	err := c.runWaves(ctx, proc, threads)
	c.recompute = proc[:0]
	return Update{
		Res:        c.res,
		Needed:     len(proc),
		Recomputed: len(proc),
		Work:       c.res.Work - workBefore,
	}, err
}

// Invalidate marks every row the applied LAC may have changed as stale and
// recycles its vectors. cs is the ChangeSet of the replacement, changed the
// variables sim.ResimulateFrom reported as value-changed (the slice is only
// read during the call, so the simulator-owned scratch may be passed
// directly), and cutsRecomputed the node set cut.Set.UpdateAfter repaired
// (S_v). Must be called after the simulator and the cut set have been
// brought up to date.
func (c *Cache) Invalidate(cs aig.ChangeSet, changed, cutsRecomputed []int32) {
	ep := c.nextEpoch()
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
	for _, v := range cutsRecomputed {
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
		if len(c.res.rows[v].Diffs) > 0 {
			c.releaseRow(v)
		} else {
			c.valid[v] = false
		}
	}
	c.queue = q[:0]
}

func (c *Cache) Refresh(ctx context.Context, cuts *cut.Set, targets []int32, threads int) (Update, error) {
	if cuts != c.cuts {
		return c.Rebuild(ctx, cuts, threads)
	}
	return c.Rows(ctx, targets, threads)
}

// Rows ensures valid rows for the disjoint-cut closure of targets (§III-C
// N(S_cand)) and returns the shared Result plus reuse accounting. Only
// stale rows of the closure are recomputed; everything else is served from
// the cache. Row contents are bit-identical to a from-scratch
// BuildDisjoint(ctx, g, s, cuts, targets, threads) for every thread count.
// Cancellation follows Rebuild's contract: on a non-nil error the
// recomputed rows of this call are released again and the Update must be
// discarded, while previously valid cached rows stay valid.
func (c *Cache) Rows(ctx context.Context, targets []int32, threads int) (Update, error) {
	c.refreshPos()
	workBefore := c.res.Work

	// Closure of targets under disjoint-cut membership (sinks excluded) —
	// Closure with epoch-stamped scratch instead of per-call maps.
	ep := c.nextEpoch()
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
// non-sink cut elements, exactly like BuildDisjoint.
//
// On cancellation it stops at the next wave boundary and releases every
// row of the set again — a cancelled wave leaves some rows complete and
// some untouched, and releasing them all restores the invariant that a
// non-valid row is empty (so a later recompute appends onto a clean row).
func (c *Cache) runWaves(ctx context.Context, proc []int32, threads int) error {
	if len(proc) == 0 {
		return nil
	}
	sort.Slice(proc, func(i, j int) bool { return c.pos[proc[i]] > c.pos[proc[j]] })
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
	b := &disjointBuilder{g: c.g, s: c.s, cuts: c.cuts, res: c.res, pool: c.pool, rowWork: c.rowWork}
	workers := par.ScratchSlots(threads, len(proc))
	rss, cutSets := c.simulators(workers)
	var err error
	for _, wave := range waves {
		if err = par.ForEach(ctx, threads, wave, func(w int, v int32) {
			b.processNode(rss[w], cutSets[w], v)
		}); err != nil {
			break
		}
	}
	for _, v := range proc {
		c.inSet[v] = false
		if err != nil {
			if len(c.res.rows[v].Diffs) > 0 {
				c.releaseRow(v)
			} else {
				c.valid[v] = false
			}
			continue
		}
		c.valid[v] = true
	}
	return err
}
