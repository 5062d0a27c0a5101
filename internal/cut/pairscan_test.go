package cut

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/gen"
)

// recomputePairScan is the reference conflict resolution: every round walks
// the element pairs (i < j) in lexicographic order to the first pair whose
// Reach sets overlap, charging poWords per pair checked, raises both
// elements and restarts the walk; the conflict-free round charges every
// pair. recompute must produce exactly its cuts, reach sets and work.
func (s *Set) recomputePairScan(sc *cutScratch, v int32) {
	elems := s.successors(sc, v)
	w := int64(1+len(elems)) * int64(s.poWords)
	if s.reach[v] == nil {
		s.reach[v] = bitvec.NewWords(s.poWords)
	}
	s.reach[v].Clear()
	for _, e := range elems {
		if IsSink(e) {
			s.reach[v].Set(SinkPO(e), true)
		} else if s.reach[e] != nil {
			s.reach[v].OrWith(s.reach[e])
		}
	}
	kept := elems[:0]
	for _, e := range elems {
		if IsSink(e) || (s.reach[e] != nil && !s.reach[e].IsZero()) {
			kept = append(kept, e)
		}
	}
	elems = kept
	for {
		ci, cj := -1, -1
	scan:
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				w += int64(s.poWords)
				if s.elemsIntersect(elems[i], elems[j]) {
					ci, cj = i, j
					break scan
				}
			}
		}
		if ci < 0 {
			break
		}
		ei, ej := elems[ci], elems[cj]
		elems = append(elems[:cj], elems[cj+1:]...)
		elems = append(elems[:ci], elems[ci+1:]...)
		sc.nextEpoch(s.g.NumVars(), s.g.NumPOs())
		for _, e := range elems {
			sc.mark(e)
		}
		for _, raised := range [2]int32{ei, ej} {
			src := sc.one[:0]
			if IsSink(raised) {
				src = append(src, raised)
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
	s.nodeWork[v] = w
	s.work += w
}

// newPairScanSet builds the reference set of g serially with
// recomputePairScan.
func newPairScanSet(g *aig.Graph) *Set {
	s := &Set{g: g, poWords: bitvec.Words(g.NumPOs())}
	s.grow()
	sc := &cutScratch{}
	for _, level := range g.ReverseLevels() {
		for _, v := range level {
			s.recomputePairScan(sc, v)
		}
	}
	return s
}

// updateAfterPairScan is the reference repair: S_v ordered by a comparison
// sort on topological position, each node recomputed by the pair scan.
func (s *Set) updateAfterPairScan(cs aig.ChangeSet) []int32 {
	s.grow()
	for _, r := range cs.Removed {
		s.cuts[r] = nil
		s.reach[r] = nil
	}
	var roots []int32
	for _, v := range cs.FanoutChanged {
		if !s.g.IsDead(v) {
			roots = append(roots, v)
		}
	}
	pos := make(map[int32]int)
	for i, v := range s.g.Topo() {
		pos[v] = i
	}
	var sv []int32
	for _, v := range s.g.TFICone(roots) {
		if _, live := pos[v]; live && s.g.IsAnd(v) {
			sv = append(sv, v)
		}
	}
	sort.Slice(sv, func(i, j int) bool { return pos[sv[i]] > pos[sv[j]] })
	sc := &cutScratch{}
	for _, v := range sv {
		s.recomputePairScan(sc, v)
	}
	return sv
}

// sameAsPairScan reports the first difference between s and the reference
// set ref: a live node's cut (element order included), reach or recorded
// work, or the cumulated work.
func sameAsPairScan(s, ref *Set) error {
	g := s.g
	for _, v := range g.Topo() {
		if !g.IsAnd(v) {
			continue
		}
		if !slices.Equal(s.cuts[v], ref.cuts[v]) {
			return fmt.Errorf("node %d: cut %v, pair scan %v", v, s.cuts[v], ref.cuts[v])
		}
		if (s.reach[v] == nil) != (ref.reach[v] == nil) || (s.reach[v] != nil && !s.reach[v].Equal(ref.reach[v])) {
			return fmt.Errorf("node %d: reach %v, pair scan %v", v, s.reach[v], ref.reach[v])
		}
		if s.nodeWork[v] != ref.nodeWork[v] {
			return fmt.Errorf("node %d: work %d, pair scan %d", v, s.nodeWork[v], ref.nodeWork[v])
		}
	}
	if s.Work() != ref.work {
		return fmt.Errorf("total work %d, pair scan %d", s.Work(), ref.work)
	}
	return nil
}

// randomEdit draws a legal replacement of a random live AND node: constant
// 0, a PI, or a node outside its transitive fanout (the first of up to 16
// random draws; constant 1 when none qualifies).
func randomEdit(rng *rand.Rand, g *aig.Graph) (int32, aig.Lit, bool) {
	var live []int32
	for v := int32(1); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) {
			live = append(live, v)
		}
	}
	if len(live) == 0 {
		return 0, aig.False, false
	}
	v := live[rng.Intn(len(live))]
	switch rng.Intn(3) {
	case 0:
		return v, aig.False, true
	case 1:
		return v, aig.MakeLit(g.PIs()[rng.Intn(g.NumPIs())], rng.Intn(2) == 1), true
	}
	for try := 0; try < 16; try++ {
		if w := live[rng.Intn(len(live))]; w != v && !g.InTFO(v, w) {
			return v, aig.MakeLit(w, rng.Intn(2) == 1), true
		}
	}
	return v, aig.True, true
}

// TestRecomputeMatchesPairScan pins recompute's first-conflict rule and its
// charged pair count to the quadratic pair scan: after a build at threads 1
// and 2 and after every step of random UpdateAfter sequences, every live
// node's cut (in element order), reach and recorded work, the cumulated
// work and the repaired set S_v equal the reference's.
func TestRecomputeMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	circuits := map[string]*aig.Graph{
		"vecmul2x4":  gen.VecMul(2, 4),
		"sqrt12":     gen.Sqrt(12),
		"butterfly4": gen.Butterfly(4),
		"mults3x3":   gen.MultS(3, 3),
	}
	for i := 0; i < 12; i++ {
		circuits[fmt.Sprintf("random%d", i)] = randomGraph(rng, 5+i%4, 60+10*i, 3+i%6)
	}
	names := make([]string, 0, len(circuits))
	for name := range circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, threads := range []int{1, 2} {
			g := circuits[name].Clone()
			s, err := NewSet(context.Background(), g, threads)
			if err != nil {
				t.Fatal(err)
			}
			ref := newPairScanSet(g)
			if err := sameAsPairScan(s, ref); err != nil {
				t.Fatalf("%s threads %d, build: %v", name, threads, err)
			}
			for step := 0; step < 12; step++ {
				v, l, ok := randomEdit(rng, g)
				if !ok {
					break
				}
				cs := g.ReplaceWithLit(v, l)
				sv, refSv := s.UpdateAfter(cs), ref.updateAfterPairScan(cs)
				if !slices.Equal(sv, refSv) {
					t.Fatalf("%s threads %d step %d: S_v %v, pair scan %v", name, threads, step, sv, refSv)
				}
				if err := sameAsPairScan(s, ref); err != nil {
					t.Fatalf("%s threads %d step %d: %v", name, threads, step, err)
				}
			}
		}
	}
}

// BenchmarkUpdateAfter times the cut repair alone over a fixed sequence of
// 40 constant replacements (seeded random live AND nodes) on two large-const
// circuits; the build and the graph edits run with the timer stopped.
func BenchmarkUpdateAfter(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *aig.Graph
	}{{"butterfly10", gen.Butterfly(10)}, {"sqrt48", gen.Sqrt(48)}} {
		b.Run(c.name, func(b *testing.B) {
			// Record the victims once so every iteration replays the same
			// sequence of edits.
			rng := rand.New(rand.NewSource(41))
			probe := c.g.Clone()
			var victims []int32
			for len(victims) < 40 {
				var live []int32
				for v := int32(1); v <= probe.MaxVar(); v++ {
					if probe.IsAnd(v) {
						live = append(live, v)
					}
				}
				v := live[rng.Intn(len(live))]
				probe.ReplaceWithLit(v, aig.False)
				victims = append(victims, v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := c.g.Clone()
				s, _ := NewSet(context.Background(), g, 1)
				for _, v := range victims {
					cs := g.ReplaceWithLit(v, aig.False)
					b.StartTimer()
					s.UpdateAfter(cs)
					b.StopTimer()
				}
			}
		})
	}
}
