// Package aig implements an AND-inverter graph (AIG), the circuit substrate
// used by the whole ALS engine. Nodes are either the constant, primary
// inputs, or two-input AND gates; inversion lives on edges as literal
// complement bits (AIGER convention).
//
// Beyond construction, the package maintains fanout lists and supports the
// structural operations the dual-phase framework needs: TFI cones, TFO tests,
// maximum fanout-free cones (MFFC), node replacement with precise reporting
// of the changed set S_c (paper §III-B), cloning for rollback, and a sweep
// pass that propagates constants and removes dangling logic.
package aig

import (
	"fmt"
	"sort"
)

// Lit is an AIG literal: 2*variable + complement. Literal 0 is constant
// false and literal 1 is constant true (variable 0 is the constant node).
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// MakeLit builds a literal from a variable id and a complement flag.
func MakeLit(v int32, compl bool) Lit {
	l := Lit(v) << 1
	if compl {
		l |= 1
	}
	return l
}

// Var returns the variable id of the literal.
func (l Lit) Var() int32 { return int32(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the literal as the variable id, prefixed with '!' when
// complemented.
func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// NodeType distinguishes the three kinds of AIG nodes.
type NodeType uint8

// Node kinds.
const (
	TypeConst NodeType = iota // variable 0 only
	TypePI                    // primary input
	TypeAnd                   // two-input AND gate
)

type node struct {
	fan0, fan1 Lit
	fanouts    []int32 // AND nodes reading this node (duplicates when both fanins)
	typ        NodeType
	dead       bool
}

// Graph is a mutable AIG.
//
// The zero value is not usable; call New.
type Graph struct {
	Name string

	nodes   []node
	pis     []int32
	piNames []string
	pos     []Lit
	poNames []string

	strash map[uint64]int32

	numAnds int // live AND count

	// traversal bookkeeping
	mark   []uint32
	travID uint32

	// MFFCSize scratch (epoch-stamped deficits + FIFO queue), reused across
	// calls so the hot candidate-generation loop allocates nothing. Shares
	// the newTrav epoch with g.mark, which makes MFFC walks — like every
	// mark-based traversal — unsafe for concurrent use.
	mffcDef   []int32
	mffcDefID []uint32
	mffcQueue []int32

	// caches, invalidated on structural edits
	topo    []int32
	levels  []int32
	version uint64
}

// New returns an empty graph containing only the constant node.
func New(name string) *Graph {
	g := &Graph{
		Name:   name,
		nodes:  make([]node, 1), // var 0: constant
		strash: make(map[uint64]int32),
	}
	g.nodes[0].typ = TypeConst
	return g
}

// MaxVar returns the largest variable id in use (dead nodes included).
func (g *Graph) MaxVar() int32 { return int32(len(g.nodes) - 1) }

// NumVars returns the number of variable slots, i.e. MaxVar()+1. Slices
// indexed by variable id should have this length.
func (g *Graph) NumVars() int { return len(g.nodes) }

// NumPIs returns the number of primary inputs.
func (g *Graph) NumPIs() int { return len(g.pis) }

// NumPOs returns the number of primary outputs.
func (g *Graph) NumPOs() int { return len(g.pos) }

// NumAnds returns the number of live AND nodes — the circuit "size" used
// throughout the paper (#Nd).
func (g *Graph) NumAnds() int { return g.numAnds }

// Version is incremented by every structural edit; callers use it to
// invalidate derived data.
func (g *Graph) Version() uint64 { return g.version }

// PIs returns the variable ids of the primary inputs, in declaration order.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) PIs() []int32 { return g.pis }

// POs returns the primary output literals in declaration order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) POs() []Lit { return g.pos }

// PO returns the i-th primary output literal.
func (g *Graph) PO(i int) Lit { return g.pos[i] }

// SetPO redirects the i-th primary output to drive literal l.
func (g *Graph) SetPO(i int, l Lit) {
	g.pos[i] = l
	g.version++
	g.topo, g.levels = nil, nil
}

// PIName returns the name of the i-th primary input.
func (g *Graph) PIName(i int) string { return g.piNames[i] }

// RenamePI sets the name of the i-th primary input. Names are cosmetic —
// only symbol tables and word-level evaluation helpers read them — so a
// rename never invalidates derived state.
func (g *Graph) RenamePI(i int, name string) { g.piNames[i] = name }

// POName returns the name of the i-th primary output.
func (g *Graph) POName(i int) string { return g.poNames[i] }

// Type returns the kind of variable v.
func (g *Graph) Type(v int32) NodeType { return g.nodes[v].typ }

// IsAnd reports whether v is a live AND node.
func (g *Graph) IsAnd(v int32) bool { return g.nodes[v].typ == TypeAnd && !g.nodes[v].dead }

// IsPI reports whether v is a primary input.
func (g *Graph) IsPI(v int32) bool { return g.nodes[v].typ == TypePI }

// IsDead reports whether v has been removed from the circuit.
func (g *Graph) IsDead(v int32) bool { return g.nodes[v].dead }

// Fanins returns the two fanin literals of AND node v.
func (g *Graph) Fanins(v int32) (Lit, Lit) { return g.nodes[v].fan0, g.nodes[v].fan1 }

// Fanouts returns the AND nodes reading v. A reader appears twice when both
// of its fanins are v. The slice is owned by the graph; do not modify.
func (g *Graph) Fanouts(v int32) []int32 { return g.nodes[v].fanouts }

// NumFanouts returns the number of fanout edges of v (PO references not
// included).
func (g *Graph) NumFanouts(v int32) int { return len(g.nodes[v].fanouts) }

// AddPI appends a primary input with the given name and returns its literal.
func (g *Graph) AddPI(name string) Lit {
	v := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{typ: TypePI})
	g.pis = append(g.pis, v)
	if name == "" {
		name = fmt.Sprintf("pi%d", len(g.pis)-1)
	}
	g.piNames = append(g.piNames, name)
	g.version++
	g.topo, g.levels = nil, nil
	return MakeLit(v, false)
}

// AddPO appends a primary output driven by literal l.
func (g *Graph) AddPO(l Lit, name string) int {
	if name == "" {
		name = fmt.Sprintf("po%d", len(g.pos))
	}
	g.pos = append(g.pos, l)
	g.poNames = append(g.poNames, name)
	g.version++
	g.topo, g.levels = nil, nil
	return len(g.pos) - 1
}

func strashKey(a, b Lit) uint64 { return uint64(a)<<32 | uint64(b) }

// normKey returns the strash key for an unordered fanin pair.
func normKey(a, b Lit) uint64 {
	if a > b {
		a, b = b, a
	}
	return strashKey(a, b)
}

// And returns a literal for a∧b, creating a structurally hashed AND node
// unless a trivial simplification applies.
func (g *Graph) And(a, b Lit) Lit {
	// Trivial cases.
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	if a > b {
		a, b = b, a
	}
	key := strashKey(a, b)
	if v, ok := g.strash[key]; ok && !g.nodes[v].dead {
		return MakeLit(v, false)
	}
	v := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{fan0: a, fan1: b, typ: TypeAnd})
	g.nodes[a.Var()].fanouts = append(g.nodes[a.Var()].fanouts, v)
	g.nodes[b.Var()].fanouts = append(g.nodes[b.Var()].fanouts, v)
	g.strash[key] = v
	g.numAnds++
	g.version++
	g.topo, g.levels = nil, nil
	return MakeLit(v, false)
}

// Or returns a literal for a∨b.
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for a⊕b using the standard 3-AND construction.
func (g *Graph) Xor(a, b Lit) Lit {
	return g.And(g.And(a, b.Not()).Not(), g.And(a.Not(), b).Not()).Not()
}

// Xnor returns a literal for ¬(a⊕b).
func (g *Graph) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns a literal for s ? t : e.
func (g *Graph) Mux(s, t, e Lit) Lit {
	return g.And(g.And(s, t).Not(), g.And(s.Not(), e).Not()).Not()
}

// Maj returns the majority of three literals (the full-adder carry).
func (g *Graph) Maj(a, b, c Lit) Lit {
	return g.Or(g.And(a, b), g.Or(g.And(a, c), g.And(b, c)))
}

// newTrav starts a fresh traversal and returns the mark value to use.
func (g *Graph) newTrav() uint32 {
	if len(g.mark) < len(g.nodes) {
		grown := make([]uint32, len(g.nodes)*2)
		copy(grown, g.mark)
		g.mark = grown
	}
	g.travID++
	if g.travID == 0 { // wrapped: clear and restart
		for i := range g.mark {
			g.mark[i] = 0
		}
		for i := range g.mffcDefID { // shares the epoch counter
			g.mffcDefID[i] = 0
		}
		g.travID = 1
	}
	return g.travID
}

// Topo returns the variable ids of all live nodes (constant, PIs, ANDs) in
// a topological order: every node appears after its fanins. The slice is
// cached until the next structural edit and must not be modified.
func (g *Graph) Topo() []int32 {
	if g.topo != nil {
		return g.topo
	}
	id := g.newTrav()
	order := make([]int32, 0, len(g.nodes))
	// Constant and PIs first, in stable order.
	g.mark[0] = id
	order = append(order, 0)
	for _, v := range g.pis {
		g.mark[v] = id
		order = append(order, v)
	}
	// Iterative post-order DFS from the POs.
	type frame struct {
		v     int32
		stage int8
	}
	stack := make([]frame, 0, 64)
	for _, po := range g.pos {
		v := po.Var()
		if g.mark[v] == id {
			continue
		}
		stack = append(stack, frame{v, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := &g.nodes[f.v]
			switch f.stage {
			case 0:
				f.stage = 1
				if w := n.fan0.Var(); g.mark[w] != id {
					g.mark[w] = id
					stack = append(stack, frame{w, 0})
					if g.nodes[w].typ != TypeAnd {
						stack[len(stack)-1].stage = 2
					}
				}
			case 1:
				f.stage = 2
				if w := n.fan1.Var(); g.mark[w] != id {
					g.mark[w] = id
					stack = append(stack, frame{w, 0})
					if g.nodes[w].typ != TypeAnd {
						stack[len(stack)-1].stage = 2
					}
				}
			default:
				order = append(order, f.v)
				stack = stack[:len(stack)-1]
			}
		}
		if g.mark[v] != id {
			g.mark[v] = id
		}
	}
	g.topo = order
	return order
}

// Levels returns the level (longest distance from a PI, in AND gates) of
// every variable; dead/unreached nodes have level 0. Cached with Topo.
func (g *Graph) Levels() []int32 {
	if g.levels != nil {
		return g.levels
	}
	lv := make([]int32, len(g.nodes))
	for _, v := range g.Topo() {
		n := &g.nodes[v]
		if n.typ != TypeAnd {
			continue
		}
		l0, l1 := lv[n.fan0.Var()], lv[n.fan1.Var()]
		if l1 > l0 {
			l0 = l1
		}
		lv[v] = l0 + 1
	}
	g.levels = lv
	return lv
}

// ReverseLevels groups the live AND nodes reachable from the POs by
// reverse-topological level: group 0 holds nodes with no live AND fanout,
// and a node's level is one more than the maximum level of its live
// fanouts. Every node's transitive fanout therefore lies entirely in
// earlier groups, so output-side analyses whose per-node work depends only
// on fanout-side results (disjoint cuts, CPM rows) can process one group
// in parallel with a barrier between groups. Within a group, nodes appear
// in topological order. The result is not cached.
func (g *Graph) ReverseLevels() [][]int32 {
	rl := make([]int32, len(g.nodes))
	order := g.Topo()
	var max int32 = -1
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if !g.IsAnd(v) {
			continue
		}
		var l int32
		for _, f := range g.nodes[v].fanouts {
			if g.IsAnd(f) && rl[f] >= l {
				l = rl[f] + 1
			}
		}
		rl[v] = l
		if l > max {
			max = l
		}
	}
	groups := make([][]int32, max+1)
	for _, v := range order {
		if g.IsAnd(v) {
			groups[rl[v]] = append(groups[rl[v]], v)
		}
	}
	return groups
}

// Depth returns the maximum PO level.
func (g *Graph) Depth() int32 {
	lv := g.Levels()
	var d int32
	for _, po := range g.pos {
		if l := lv[po.Var()]; l > d {
			d = l
		}
	}
	return d
}

// TFICone returns the variable ids of all nodes in the union of the
// transitive-fanin cones of roots (roots included; constant and PIs
// included when reached). The order is unspecified.
func (g *Graph) TFICone(roots []int32) []int32 {
	id := g.newTrav()
	var cone []int32
	var stack []int32
	for _, r := range roots {
		if g.mark[r] == id || g.nodes[r].dead {
			continue
		}
		g.mark[r] = id
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cone = append(cone, v)
			if g.nodes[v].typ != TypeAnd {
				continue
			}
			for _, w := range [2]int32{g.nodes[v].fan0.Var(), g.nodes[v].fan1.Var()} {
				if g.mark[w] != id {
					g.mark[w] = id
					stack = append(stack, w)
				}
			}
		}
	}
	return cone
}

// InTFO reports whether target is in the transitive-fanout cone of v
// (v itself counts).
func (g *Graph) InTFO(v, target int32) bool {
	if v == target {
		return true
	}
	id := g.newTrav()
	g.mark[v] = id
	stack := []int32{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.nodes[x].fanouts {
			if g.nodes[w].dead {
				continue
			}
			if w == target {
				return true
			}
			if g.mark[w] != id {
				g.mark[w] = id
				stack = append(stack, w)
			}
		}
	}
	return false
}

// poRefs counts how many primary outputs reference variable v.
func (g *Graph) poRefs(v int32) int {
	n := 0
	for _, po := range g.pos {
		if po.Var() == v {
			n++
		}
	}
	return n
}

// MFFC returns the nodes of the maximum fanout-free cone of AND node v:
// v plus every AND node that becomes dangling when v is removed. PIs and
// the constant are never part of an MFFC.
func (g *Graph) MFFC(v int32) []int32 {
	if g.nodes[v].typ != TypeAnd || g.nodes[v].dead {
		return nil
	}
	// Simulated deref walk using a local deficit map: a fanin joins the
	// MFFC when all of its fanout edges and PO refs come from inside.
	deficit := map[int32]int{}
	mffc := []int32{v}
	queue := []int32{v}
	inMFFC := map[int32]bool{v: true}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		n := &g.nodes[x]
		for _, fl := range [2]Lit{n.fan0, n.fan1} {
			w := fl.Var()
			if g.nodes[w].typ != TypeAnd || inMFFC[w] {
				continue
			}
			if _, ok := deficit[w]; !ok {
				deficit[w] = len(g.nodes[w].fanouts) + g.poRefs(w)
			}
			deficit[w]--
			if deficit[w] == 0 {
				inMFFC[w] = true
				mffc = append(mffc, w)
				queue = append(queue, w)
			}
		}
	}
	// The walk above decrements once per (x,fanin-literal) pair; a node
	// reading w twice contributes two fanout-list entries and two
	// decrements, so the accounting matches.
	return mffc
}

// MFFCSize returns len(MFFC(v)) without materialising the cone. It runs
// the same deficit walk as MFFC on reused epoch-stamped scratch — the
// candidate generator calls it once per target per iteration, so the
// map-free version keeps that loop allocation-free. The MFFC set (and
// hence its size) is independent of visit order, so the two walks always
// agree.
func (g *Graph) MFFCSize(v int32) int {
	if g.nodes[v].typ != TypeAnd || g.nodes[v].dead {
		return 0
	}
	id := g.newTrav()
	if len(g.mffcDef) < len(g.nodes) {
		g.mffcDef = make([]int32, len(g.nodes)*2)
		g.mffcDefID = make([]uint32, len(g.nodes)*2)
	}
	g.mark[v] = id // mark = in MFFC
	count := 1
	queue := append(g.mffcQueue[:0], v)
	for qi := 0; qi < len(queue); qi++ {
		n := &g.nodes[queue[qi]]
		for _, fl := range [2]Lit{n.fan0, n.fan1} {
			w := fl.Var()
			if g.nodes[w].typ != TypeAnd || g.mark[w] == id {
				continue
			}
			if g.mffcDefID[w] != id {
				g.mffcDefID[w] = id
				g.mffcDef[w] = int32(len(g.nodes[w].fanouts) + g.poRefs(w))
			}
			g.mffcDef[w]--
			if g.mffcDef[w] == 0 {
				g.mark[w] = id
				count++
				queue = append(queue, w)
			}
		}
	}
	g.mffcQueue = queue[:0]
	return count
}

// ChangeSet reports the structural consequences of a replacement, in the
// terms of paper §III-B: Removed nodes, and surviving nodes whose fanout
// list changed. S_c = Removed ∪ FanoutChanged.
type ChangeSet struct {
	Target        int32   // the replaced node
	Removed       []int32 // target plus its MFFC (all removed)
	FanoutChanged []int32 // surviving nodes that gained or lost fanout edges
	Rewired       []int32 // surviving readers whose fanin literal changed
}

func removeOneFanout(fo []int32, v int32) []int32 {
	for i, x := range fo {
		if x == v {
			fo[i] = fo[len(fo)-1]
			return fo[:len(fo)-1]
		}
	}
	return fo
}

// ReplaceWithLit applies a LAC: every reader of AND node v (fanouts and
// POs) is rewired to read literal l instead (edge complements preserved),
// then v and its newly dangling cone are removed. The caller must ensure
// l.Var() is not in the TFO cone of v — otherwise the graph would become
// cyclic. The returned ChangeSet is the paper's S_c.
func (g *Graph) ReplaceWithLit(v int32, l Lit) ChangeSet {
	if g.nodes[v].typ != TypeAnd {
		panic("aig: ReplaceWithLit target must be an AND node")
	}
	if l.Var() == v {
		panic("aig: ReplaceWithLit target cannot be its own replacement")
	}
	cs := ChangeSet{Target: v}
	fanoutTouched := map[int32]bool{}

	// Rewire fanout ANDs, keeping the structural hash consistent: the old
	// key of every rewired reader becomes stale and its new shape is
	// registered unless an equivalent node already owns that key.
	readers := append([]int32(nil), g.nodes[v].fanouts...)
	seen := map[int32]bool{}
	for _, f := range readers {
		if !seen[f] {
			seen[f] = true
			cs.Rewired = append(cs.Rewired, f)
		}
		fn := &g.nodes[f]
		if ok := g.strash[normKey(fn.fan0, fn.fan1)]; ok == f {
			delete(g.strash, normKey(fn.fan0, fn.fan1))
		}
		if fn.fan0.Var() == v {
			fn.fan0 = l.NotIf(fn.fan0.IsCompl())
			g.nodes[l.Var()].fanouts = append(g.nodes[l.Var()].fanouts, f)
		} else if fn.fan1.Var() == v {
			fn.fan1 = l.NotIf(fn.fan1.IsCompl())
			g.nodes[l.Var()].fanouts = append(g.nodes[l.Var()].fanouts, f)
		}
		if _, exists := g.strash[normKey(fn.fan0, fn.fan1)]; !exists {
			g.strash[normKey(fn.fan0, fn.fan1)] = f
		}
	}
	g.nodes[v].fanouts = g.nodes[v].fanouts[:0]
	if len(readers) > 0 {
		fanoutTouched[l.Var()] = true
	}

	// Rewire POs. Gaining a PO reference changes the reachability of the
	// replacement node just like gaining a fanout edge does, so it counts
	// toward S_c as well.
	for i, po := range g.pos {
		if po.Var() == v {
			g.pos[i] = l.NotIf(po.IsCompl())
			fanoutTouched[l.Var()] = true
		}
	}

	// Recursively remove the dangling cone (v's MFFC, by construction).
	var removeRec func(x int32)
	removeRec = func(x int32) {
		n := &g.nodes[x]
		if n.typ != TypeAnd || n.dead || len(n.fanouts) > 0 || g.poRefs(x) > 0 {
			return
		}
		n.dead = true
		g.numAnds--
		if g.strash[normKey(n.fan0, n.fan1)] == x {
			delete(g.strash, normKey(n.fan0, n.fan1))
		}
		cs.Removed = append(cs.Removed, x)
		for _, fl := range []Lit{n.fan0, n.fan1} {
			w := fl.Var()
			g.nodes[w].fanouts = removeOneFanout(g.nodes[w].fanouts, x)
			fanoutTouched[w] = true
			removeRec(w)
		}
	}
	removeRec(v)

	for w := range fanoutTouched {
		if !g.nodes[w].dead {
			cs.FanoutChanged = append(cs.FanoutChanged, w)
		}
	}
	sort.Slice(cs.FanoutChanged, func(i, j int) bool { return cs.FanoutChanged[i] < cs.FanoutChanged[j] })
	g.version++
	g.topo, g.levels = nil, nil
	return cs
}

// AppendGraph instantiates src inside dst: src's primary inputs are bound
// to piLits (one literal per src PI, in order) and the returned slice holds
// dst literals equivalent to src's primary outputs. src is not modified.
func AppendGraph(dst, src *Graph, piLits []Lit) []Lit {
	if len(piLits) != src.NumPIs() {
		panic("aig: AppendGraph input binding width mismatch")
	}
	lmap := make([]Lit, src.NumVars())
	lmap[0] = False
	for i, v := range src.PIs() {
		lmap[v] = piLits[i]
	}
	for _, v := range src.Topo() {
		n := &src.nodes[v]
		if n.typ != TypeAnd {
			continue
		}
		a := lmap[n.fan0.Var()].NotIf(n.fan0.IsCompl())
		b := lmap[n.fan1.Var()].NotIf(n.fan1.IsCompl())
		lmap[v] = dst.And(a, b)
	}
	outs := make([]Lit, src.NumPOs())
	for o, po := range src.pos {
		outs[o] = lmap[po.Var()].NotIf(po.IsCompl())
	}
	return outs
}

// Clone returns a deep copy of the graph (caches are not copied).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		nodes:   make([]node, len(g.nodes)),
		pis:     append([]int32(nil), g.pis...),
		piNames: append([]string(nil), g.piNames...),
		pos:     append([]Lit(nil), g.pos...),
		poNames: append([]string(nil), g.poNames...),
		strash:  make(map[uint64]int32, len(g.strash)),
		numAnds: g.numAnds,
		version: g.version,
	}
	for i := range g.nodes {
		c.nodes[i] = g.nodes[i]
		c.nodes[i].fanouts = append([]int32(nil), g.nodes[i].fanouts...)
	}
	for k, v := range g.strash {
		c.strash[k] = v
	}
	return c
}

// Sweep rebuilds the graph from its POs with constant propagation,
// simplification, and structural hashing, returning a fresh compact graph.
// Node identities are not preserved; use it before technology mapping or
// export, never in the middle of an incremental flow.
func (g *Graph) Sweep() *Graph {
	ng := New(g.Name)
	lmap := make([]Lit, len(g.nodes)) // old var -> new literal (uncomplemented sense)
	lmap[0] = False
	for i, v := range g.pis {
		lmap[v] = ng.AddPI(g.piNames[i])
	}
	for _, v := range g.Topo() {
		n := &g.nodes[v]
		if n.typ != TypeAnd {
			continue
		}
		a := lmap[n.fan0.Var()].NotIf(n.fan0.IsCompl())
		b := lmap[n.fan1.Var()].NotIf(n.fan1.IsCompl())
		lmap[v] = ng.And(a, b)
	}
	for i, po := range g.pos {
		ng.AddPO(lmap[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	return ng
}

// Check validates the structural invariants of the graph and returns the
// first violation found, or nil. Intended for tests.
func (g *Graph) Check() error {
	// Fanin/fanout consistency.
	for v := int32(0); v < int32(len(g.nodes)); v++ {
		n := &g.nodes[v]
		if n.dead {
			if len(n.fanouts) != 0 {
				return fmt.Errorf("dead node %d has fanouts", v)
			}
			continue
		}
		if n.typ == TypeAnd {
			want := map[int32]int{}
			want[n.fan0.Var()]++
			want[n.fan1.Var()]++
			for w, wn := range want {
				if g.nodes[w].dead {
					return fmt.Errorf("node %d reads dead node %d", v, w)
				}
				found := 0
				for _, x := range g.nodes[w].fanouts {
					if x == v {
						found++
					}
				}
				if found != wn {
					return fmt.Errorf("node %d: fanout list of %d lists it %d times, want %d", v, w, found, wn)
				}
			}
		}
		for _, x := range n.fanouts {
			xn := &g.nodes[x]
			if xn.dead {
				return fmt.Errorf("node %d has dead fanout %d", v, x)
			}
			if xn.fan0.Var() != v && xn.fan1.Var() != v {
				return fmt.Errorf("node %d lists fanout %d which does not read it", v, x)
			}
		}
	}
	for i, po := range g.pos {
		if g.nodes[po.Var()].dead {
			return fmt.Errorf("PO %d references dead node %d", i, po.Var())
		}
	}
	// Acyclicity via the topological order: every fanin must appear before
	// its reader.
	pos := make(map[int32]int, len(g.nodes))
	for i, v := range g.Topo() {
		pos[v] = i
	}
	for v := range g.nodes {
		n := &g.nodes[v]
		if n.dead || n.typ != TypeAnd {
			continue
		}
		pv, ok := pos[int32(v)]
		if !ok {
			continue // dangling-but-live should not happen after replaces, but tolerated here
		}
		for _, fl := range []Lit{n.fan0, n.fan1} {
			pw, ok := pos[fl.Var()]
			if !ok {
				return fmt.Errorf("node %d fanin %d missing from topo order", v, fl.Var())
			}
			if pw >= pv {
				return fmt.Errorf("topological violation: %d (pos %d) reads %d (pos %d)", v, pv, fl.Var(), pw)
			}
		}
	}
	// Live AND count.
	cnt := 0
	for v := range g.nodes {
		if g.nodes[v].typ == TypeAnd && !g.nodes[v].dead {
			cnt++
		}
	}
	if cnt != g.numAnds {
		return fmt.Errorf("numAnds = %d, counted %d", g.numAnds, cnt)
	}
	return nil
}

// Stats summarises a graph for reports.
type Stats struct {
	PIs, POs, Ands int
	Depth          int32
}

// Stat returns summary statistics.
func (g *Graph) Stat() Stats {
	return Stats{PIs: len(g.pis), POs: len(g.pos), Ands: g.numAnds, Depth: g.Depth()}
}

func (g *Graph) String() string {
	s := g.Stat()
	return fmt.Sprintf("%s: pi=%d po=%d and=%d depth=%d", g.Name, s.PIs, s.POs, s.Ands, s.Depth)
}
