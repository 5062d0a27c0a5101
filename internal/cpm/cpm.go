// Package cpm builds the change propagation matrix (CPM) of VECBEE [19]:
// P[i,n,o] = 1 iff flipping node n under input pattern i flips primary
// output o. Rows are computed bottom-up in reverse topological order with
// Eq. (1) of the paper, P[i,n,o] = P[i,t,o] ∧ P[i,n,t], where t is the
// disjoint-cut element covering o (SEALS [20]); the local Boolean
// differences P[i,n,t] come from one flip-resimulation of the bounded
// region between n and its cut.
//
// Two schemes are provided:
//
//   - Cache.Rows — the enhanced-VECBEE/SEALS scheme over disjoint cuts.
//     It builds the rows of the closure N(S_cand) of a target set exactly
//     as §III-C Example 2 describes (all live ANDs for the full CPM), and
//     keeps them across analyses so that later calls recompute only the
//     rows an applied LAC made stale.
//   - BuildVECBEE — the original VECBEE baseline with a configurable depth
//     limit l: exact full-TFO flip propagation for l=∞, and the
//     "direct-fanout" approximation of Table II for l=1.
package cpm

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cut"
	"dpals/internal/par"
	"dpals/internal/sim"
)

// Row holds the CPM entries of one node: for each reachable PO index,
// the patterns under which a flip of the node propagates to that PO.
type Row struct {
	POs   []int32
	Diffs []bitvec.Vec
}

// Result is a computed (possibly partial) CPM.
type Result struct {
	Words int
	// Work is the deterministic work estimate of the build in bitvec word
	// operations (region simulation plus row assembly). Unlike wall-clock
	// time it is identical between runs regardless of thread count, machine,
	// or load; DP-SA's self-adaption profiles the analysis steps with it.
	Work int64
	rows []Row // per var; empty when not computed/retained
}

// Row returns the row of node v (empty when not computed or freed).
func (r *Result) Row(v int32) *Row { return &r.rows[v] }

// Has reports whether node v has a retained row.
func (r *Result) Has(v int32) bool { return len(r.rows[v].POs) > 0 }

// FlipDiffBit flips one bit of one retained row's diff vector — the row
// selected by site (mod the retained-row count) and, within it, a bit of
// the first diff word cycled by site — and reports whether a bit was
// flipped. It exists solely for the fault-seeding mode of the
// differential-verification campaign (internal/fault, cmd/alscheck): a
// seeded single-bit CPM corruption the oracle cross-checks must detect.
// Indexing by an injection site lets the campaign's Nth-scan explore
// corruption of different rows, not just the first one. Production code
// never calls it.
func (r *Result) FlipDiffBit(site int) bool {
	if site < 0 {
		site = 0
	}
	var retained []int32
	for v := range r.rows {
		row := &r.rows[v]
		if len(row.Diffs) > 0 && len(row.Diffs[0]) > 0 {
			retained = append(retained, int32(v))
		}
	}
	if len(retained) == 0 {
		return false
	}
	row := &r.rows[retained[site%len(retained)]]
	bit := uint(site/len(retained)) % 64
	row.Diffs[0][0] ^= 1 << bit
	return true
}

// topoIndex maps every variable to its topological position and back. It
// is shared read-only by all workers' region simulators; their owner
// refreshes it after structural edits, so workers never touch the graph's
// lazily built topological order.
type topoIndex struct {
	pos  []int32 // topo position per var
	topo []int32 // var per topo position: g.Topo()
}

// refresh re-reads the topological order of g into idx, in place.
func (idx *topoIndex) refresh(g *aig.Graph) {
	idx.topo = g.Topo()
	for i, v := range idx.topo {
		idx.pos[v] = int32(i)
	}
}

// regionSimulator performs flip-resimulation of the bounded region between
// a node and a boundary, reusing scratch vectors across calls.
type regionSimulator struct {
	g     *aig.Graph
	s     *sim.Sim
	words int
	idx   *topoIndex

	inRegion []uint32
	epoch    uint32
	boundary []uint32 // stamped with bEpoch: the next collectBounded's stop set
	bEpoch   uint32
	posBits  []uint64      // one bit per topo position; all zero between calls
	arena    *bitvec.Arena // backs scratch and local; never reset
	scratch  []bitvec.Vec
	region   []int32
	stack    []int32    // region-collection DFS scratch
	local    bitvec.Vec // scratch for one element-local diff at a time
}

// localDiff returns the worker-private scratch vector used to hold the
// local Boolean difference at one cut element. Only one element is
// assembled at a time, so a single vector per worker suffices.
func (rs *regionSimulator) localDiff() bitvec.Vec {
	if rs.local == nil {
		rs.local = rs.arena.Alloc()
	}
	return rs.local
}

func newRegionSimulator(g *aig.Graph, s *sim.Sim, idx *topoIndex) *regionSimulator {
	return &regionSimulator{
		g:        g,
		s:        s,
		words:    s.Words(),
		idx:      idx,
		inRegion: make([]uint32, g.NumVars()),
		boundary: make([]uint32, g.NumVars()),
		posBits:  make([]uint64, (g.NumVars()+63)/64),
		arena:    bitvec.NewArena(s.Words()),
		scratch:  make([]bitvec.Vec, g.NumVars()),
	}
}

// orderByPos reorders nodes in place by ascending topological position,
// descending when desc is set, without comparisons: it sets one bit per
// node in posBits, indexed by position, then walks the set bits from the
// lowest to the highest touched word. Positions are unique, so the order
// is exactly that of a comparison sort by pos; a node whose (stale)
// position collides with another's would be dropped, so that panics.
func (rs *regionSimulator) orderByPos(nodes []int32, desc bool) {
	pos, set := rs.idx.pos, rs.posBits
	lo, hi := len(set), 0
	for _, v := range nodes {
		w := int(pos[v] >> 6)
		set[w] |= 1 << (pos[v] & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	k := 0
	for w := lo; w <= hi; w++ {
		for b := set[w]; b != 0; b &= b - 1 {
			nodes[k] = rs.idx.topo[w<<6|bits.TrailingZeros64(b)]
			k++
		}
		set[w] = 0
	}
	if k != len(nodes) {
		panic("cpm: nodes share a topological position")
	}
	if desc {
		slices.Reverse(nodes)
	}
}

// flipVal returns the flipped-simulation value of variable v: its scratch
// value when v is in the current region, its normal value otherwise.
func (rs *regionSimulator) flipVal(v int32) bitvec.Vec {
	if rs.inRegion[v] == rs.epoch {
		return rs.scratch[v]
	}
	return rs.s.Val(v)
}

func (rs *regionSimulator) ensureScratch(v int32) bitvec.Vec {
	if rs.scratch[v] == nil {
		// Arena rows hold garbage; every scratch vector is fully written
		// by propagate before it is read.
		rs.scratch[v] = rs.arena.Alloc()
	}
	return rs.scratch[v]
}

// nextEpoch advances the epoch stamp of marks and returns it, clearing
// marks when the counter wraps so that no stale stamp can match.
func nextEpoch(epoch *uint32, marks []uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		clear(marks)
		*epoch = 1
	}
	return *epoch
}

// beginRegion starts a fresh region rooted at n.
func (rs *regionSimulator) beginRegion(n int32) {
	rs.region = rs.region[:0]
	rs.inRegion[n] = nextEpoch(&rs.epoch, rs.inRegion)
}

// markBoundary makes the non-sink elements of a disjoint cut the stop set
// of the next collectBounded.
func (rs *regionSimulator) markBoundary(elems []int32) {
	ep := nextEpoch(&rs.bEpoch, rs.boundary)
	for _, e := range elems {
		if !cut.IsSink(e) {
			rs.boundary[e] = ep
		}
	}
}

// collectBounded gathers the transitive fanout of n, stopping at (but
// including) the nodes of the last markBoundary.
func (rs *regionSimulator) collectBounded(n int32) {
	rs.beginRegion(n)
	g := rs.g
	stack := append(rs.stack[:0], n)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != n && rs.boundary[v] == rs.bEpoch {
			continue
		}
		for _, f := range g.Fanouts(v) {
			if rs.inRegion[f] != rs.epoch {
				rs.inRegion[f] = rs.epoch
				rs.region = append(rs.region, f)
				stack = append(stack, f)
			}
		}
	}
	rs.stack = stack[:0]
}

// collectDepth gathers the transitive fanout of n up to l levels (edges);
// l ≤ 0 means unbounded. It returns the frontier: region nodes at exactly
// depth l (never expanded). Depths are min edge distances (BFS).
func (rs *regionSimulator) collectDepth(n int32, l int, depth map[int32]int) (frontier []int32) {
	rs.beginRegion(n)
	g := rs.g
	queue := []int32{n}
	depth[n] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if l > 0 && depth[v] >= l {
			frontier = append(frontier, v)
			continue
		}
		for _, f := range g.Fanouts(v) {
			if rs.inRegion[f] != rs.epoch {
				rs.inRegion[f] = rs.epoch
				depth[f] = depth[v] + 1
				rs.region = append(rs.region, f)
				queue = append(queue, f)
			}
		}
	}
	return frontier
}

// propagate flips node n and simulates the collected region in topological
// order. After the call flipVal returns in-region values.
func (rs *regionSimulator) propagate(n int32) {
	rs.orderByPos(rs.region, false)
	g := rs.g
	sn := rs.ensureScratch(n)
	sn.Not(rs.s.Val(n))
	sn.Mask(rs.s.Patterns())
	for _, v := range rs.region {
		f0, f1 := g.Fanins(v)
		a, b := rs.flipVal(f0.Var()), rs.flipVal(f1.Var())
		dst := rs.ensureScratch(v)
		m0, m1 := uint64(0), uint64(0)
		if f0.IsCompl() {
			m0 = ^uint64(0)
		}
		if f1.IsCompl() {
			m1 = ^uint64(0)
		}
		for i := range dst {
			dst[i] = (a[i] ^ m0) & (b[i] ^ m1)
		}
		dst.Mask(rs.s.Patterns())
	}
}

// diffAt returns flipVal(v) ⊕ val(v) in dst.
func (rs *regionSimulator) diffAt(v int32, dst bitvec.Vec) {
	dst.Xor(rs.flipVal(v), rs.s.Val(v))
}

// vecbeeBuilder holds the shared state of one BuildVECBEE pass. With a
// finite depth limit, a node's row composes the rows of its frontier
// nodes, which lie strictly in the node's transitive fanout — so waves of
// one reverse-topological level are independent; with l=∞ rows never
// compose and every node is independent.
type vecbeeBuilder struct {
	g        *aig.Graph
	s        *sim.Sim
	res      *Result
	infinite bool
	l        int
	drivers  map[int32][]int
	ones     bitvec.Vec // shared all-ones diff, read-only
}

func (b *vecbeeBuilder) processNode(rs *regionSimulator, depth map[int32]int, v int32) {
	for k := range depth {
		delete(depth, k)
	}
	frontier := rs.collectDepth(v, b.l, depth)
	rs.propagate(v)
	w := int64(1+len(rs.region)) * int64(b.res.Words)

	row := &b.res.rows[v]
	covered := map[int32]bool{}
	// Exact part: POs whose driver lies inside the simulated region
	// (or is v itself).
	for _, os := range b.drivers[v] {
		row.POs = append(row.POs, int32(os))
		row.Diffs = append(row.Diffs, b.ones)
		covered[int32(os)] = true
	}
	for _, u := range rs.region {
		for _, o := range b.drivers[u] {
			if covered[int32(o)] {
				continue
			}
			d := bitvec.NewWords(b.res.Words)
			rs.diffAt(u, d)
			row.POs = append(row.POs, int32(o))
			row.Diffs = append(row.Diffs, d)
			covered[int32(o)] = true
		}
	}
	// Approximate part: POs beyond the frontier, OR-combined over the
	// frontier nodes' own rows (finite l only; with l=∞ the region is
	// the whole cone and nothing remains).
	if !b.infinite {
		acc := map[int32]bitvec.Vec{}
		scratch := bitvec.NewWords(b.res.Words)
		for _, f := range frontier {
			fdiff := bitvec.NewWords(b.res.Words)
			rs.diffAt(f, fdiff)
			frow := &b.res.rows[f]
			w += int64(1+len(frow.POs)) * int64(b.res.Words)
			for j, o := range frow.POs {
				if covered[o] {
					continue
				}
				scratch.And(frow.Diffs[j], fdiff)
				if a, ok := acc[o]; ok {
					a.OrWith(scratch)
				} else {
					nv := bitvec.NewWords(b.res.Words)
					nv.CopyFrom(scratch)
					acc[o] = nv
				}
			}
		}
		oIdx := make([]int32, 0, len(acc))
		for o := range acc {
			oIdx = append(oIdx, o)
		}
		slices.Sort(oIdx)
		for _, o := range oIdx {
			row.POs = append(row.POs, o)
			row.Diffs = append(row.Diffs, acc[o])
		}
	}
	atomic.AddInt64(&b.res.Work, w)
}

// BuildVECBEE computes the CPM row of every live AND node with the
// original VECBEE scheme at depth limit l: each node's flip is propagated
// exactly through its transitive fanout up to l levels; beyond the
// frontier the effect is approximated by OR-combining the frontier nodes'
// own rows. l ≤ 0 means ∞ (fully exact, one whole-cone resimulation per
// node).
//
// threads follows the pipeline-wide semantics of package par (≤0: all
// CPUs, 1: serial); the result is bit-identical for every thread count.
// The build checks ctx at every wave boundary and stops early once it is
// cancelled, returning the partial result alongside ctx.Err(); a non-nil
// error means the rows are incomplete and must be discarded.
func BuildVECBEE(ctx context.Context, g *aig.Graph, s *sim.Sim, l int, threads int) (*Result, error) {
	res := &Result{Words: s.Words(), rows: make([]Row, g.NumVars())}
	infinite := l <= 0

	drivers := map[int32][]int{}
	for o, po := range g.POs() {
		drivers[po.Var()] = append(drivers[po.Var()], o)
	}

	ones := bitvec.NewWords(s.Words())
	ones.SetAll()
	ones.Mask(s.Patterns())

	b := &vecbeeBuilder{g: g, s: s, res: res, infinite: infinite, l: l, drivers: drivers, ones: ones}

	// With l=∞ rows never compose, so every node is one independent unit
	// of work. With finite l a
	// node composes rows of frontier nodes in its strict transitive
	// fanout, so reverse-topological levels run as waves with barriers.
	var waves [][]int32
	if infinite {
		var flat []int32
		order := g.Topo()
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if g.IsAnd(v) {
				flat = append(flat, v)
			}
		}
		waves = [][]int32{flat}
	} else {
		waves = g.ReverseLevels()
	}
	var numNodes int
	for _, wave := range waves {
		numNodes += len(wave)
	}
	idx := &topoIndex{pos: make([]int32, g.NumVars())}
	idx.refresh(g)
	workers := par.ScratchSlots(threads, numNodes)
	rss := make([]*regionSimulator, workers)
	depths := make([]map[int32]int, workers)
	for w := range rss {
		rss[w] = newRegionSimulator(g, s, idx)
		depths[w] = make(map[int32]int)
	}
	for _, wave := range waves {
		if err := par.ForEach(ctx, threads, wave, func(w int, v int32) {
			b.processNode(rss[w], depths[w], v)
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}
