package cpm

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

// checkRegionOrders collects the bounded flip region of every live AND node
// of g and fails unless orderByPos sorts it exactly like a comparison sort
// by topological position, with every in-region fanin ahead of its
// consumer. Descending order is checked on the same regions.
func checkRegionOrders(t *testing.T, label string, g *aig.Graph, cuts *cut.Set, rs *regionSimulator) {
	t.Helper()
	pos := rs.idx.pos
	byPos := func(a, b int32) int { return cmp.Compare(pos[a], pos[b]) }
	for _, v := range g.Topo() {
		if !g.IsAnd(v) {
			continue
		}
		rs.markBoundary(cuts.Cut(v))
		rs.collectBounded(v)
		want := slices.Clone(rs.region)
		slices.SortFunc(want, byPos)
		rs.orderByPos(rs.region, false)
		if !slices.Equal(rs.region, want) {
			t.Fatalf("%s: node %d: region order %v, want %v", label, v, rs.region, want)
		}
		seen := map[int32]bool{v: true}
		for _, u := range rs.region {
			f0, f1 := g.Fanins(u)
			for _, f := range []int32{f0.Var(), f1.Var()} {
				if rs.inRegion[f] == rs.epoch && !seen[f] {
					t.Fatalf("%s: node %d: region node %d precedes its fanin %d", label, v, u, f)
				}
			}
			seen[u] = true
		}
		rs.orderByPos(rs.region, true)
		slices.Reverse(want)
		if !slices.Equal(rs.region, want) {
			t.Fatalf("%s: node %d: descending order %v, want %v", label, v, rs.region, want)
		}
	}
}

// TestRegionOrderMatchesTopo pins the contract of orderByPos on the
// generated small suite, on a Cache partway through a random LAC sequence
// (where positions are refreshed in place after structural edits), and
// its panic on two nodes sharing a position.
func TestRegionOrderMatchesTopo(t *testing.T) {
	for _, b := range gen.SmallSuite(true) {
		g := b.Graph.Sweep()
		s := sim.New(g, sim.Options{Patterns: 64, Seed: 1})
		cuts, _ := cut.NewSet(context.Background(), g, 1)
		checkRegionOrders(t, b.PaperName, g, cuts, newRegionSimulator(g, s, topoIndexOf(g)))
	}

	rng := rand.New(rand.NewSource(67))
	g := randomGraph(rng, 7, 120, 6)
	s := sim.New(g, sim.Options{Patterns: 128, Seed: 67})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	cache := NewCache(g, s)
	cache.Rows(context.Background(), cuts, liveANDs(g), 1)
	for step := 0; step < 10; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed)
		var targets []int32
		for _, u := range g.Topo() {
			if g.IsAnd(u) && rng.Intn(2) == 0 {
				targets = append(targets, u)
			}
		}
		if _, err := cache.Rows(context.Background(), cuts, targets, 1); err != nil {
			t.Fatal(err)
		}
		checkRegionOrders(t, "cache", g, cuts, cache.simulators(1)[0])
	}

	rs := newRegionSimulator(g, s, &topoIndex{pos: slices.Clone(cache.idx.pos), topo: cache.idx.topo})
	live := g.Topo()[len(g.Topo())-2:]
	rs.idx.pos[live[0]] = rs.idx.pos[live[1]]
	defer func() {
		if recover() == nil {
			t.Fatal("orderByPos accepted two nodes sharing a position")
		}
	}()
	rs.orderByPos(slices.Clone(live), false)
}

// TestRegionEpochWrap builds every disjoint-cut row with one region
// simulator whose region and boundary epochs start just below the uint32
// limit, so both counters wrap mid-build (at different rows). Both stamp
// arrays hold the low stamps an earlier epoch cycle would have left, which
// the wrap must clear; every row must still equal the brute-force Boolean
// differences.
func TestRegionEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 6, 70, 6)
	s := sim.New(g, sim.Options{Patterns: 192, Seed: 71})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	c := NewCache(g, s)
	c.cuts = cuts
	rs := newRegionSimulator(g, s, topoIndexOf(g))
	for v := range rs.inRegion {
		rs.inRegion[v] = 1 + uint32(v%16)
		rs.boundary[v] = 1 + uint32(v%16)
	}
	rs.epoch, rs.bEpoch = math.MaxUint32-5, math.MaxUint32-11
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		if g.IsAnd(topo[i]) {
			c.processNode(rs, topo[i])
		}
	}
	if rs.epoch > 1000 || rs.bEpoch > 1000 {
		t.Fatalf("epochs did not wrap: region %d, boundary %d", rs.epoch, rs.bEpoch)
	}
	for _, v := range topo {
		if g.IsAnd(v) {
			checkAgainstBruteForce(t, g, s, c.res, v)
		}
	}
}

// topoIndexOf returns the topological index of g.
func topoIndexOf(g *aig.Graph) *topoIndex {
	idx := &topoIndex{pos: make([]int32, g.NumVars())}
	idx.refresh(g)
	return idx
}

// BenchmarkRegionPropagate times the per-row kernel of the disjoint-cut
// builder — collecting one bounded flip region, ordering it and
// flip-simulating it — on the node of the 48-bit square root (the
// large-circuit benchmark's sqrt) with the largest region, at 1024
// patterns.
func BenchmarkRegionPropagate(b *testing.B) {
	g := gen.Sqrt(48).Sweep()
	s := sim.New(g, sim.Options{Patterns: 1024, Seed: 1})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	rs := newRegionSimulator(g, s, topoIndexOf(g))
	var root int32
	largest := -1
	for _, v := range g.Topo() {
		if g.IsAnd(v) {
			rs.markBoundary(cuts.Cut(v))
			rs.collectBounded(v)
			if len(rs.region) > largest {
				root, largest = v, len(rs.region)
			}
		}
	}
	b.ReportMetric(float64(largest), "nodes/region")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.markBoundary(cuts.Cut(root))
		rs.collectBounded(root)
		rs.propagate(root)
	}
}
