package cut

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dpals/internal/aig"
)

// Property: for any random circuit, the computed cut set validates, and it
// still validates after any legal replacement followed by an incremental
// update.
func TestQuickCutsAlwaysValid(t *testing.T) {
	f := func(seed int64, pick, rpick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5, 40, 4)
		s, _ := NewSet(context.Background(), g, 1)
		if err := s.Validate(); err != nil {
			t.Logf("initial: %v", err)
			return false
		}
		var ands []int32
		for v := int32(1); v <= g.MaxVar(); v++ {
			if g.IsAnd(v) {
				ands = append(ands, v)
			}
		}
		if len(ands) == 0 {
			return true
		}
		v := ands[int(pick)%len(ands)]
		repl := []aig.Lit{aig.False, aig.True}
		for _, p := range g.PIs() {
			repl = append(repl, aig.MakeLit(p, true))
		}
		for _, w := range ands {
			if w != v && !g.InTFO(v, w) {
				repl = append(repl, aig.MakeLit(w, false))
			}
		}
		l := repl[int(rpick)%len(repl)]
		cs := g.ReplaceWithLit(v, l)
		s.UpdateAfter(cs)
		if err := s.Validate(); err != nil {
			t.Logf("after update: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every cut element lies strictly in the transitive fanout of
// its node (sinks aside), and cut sizes never exceed the number of
// reachable POs.
func TestQuickCutElementsInTFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6, 50, 5)
		s, _ := NewSet(context.Background(), g, 1)
		for _, v := range g.Topo() {
			if !g.IsAnd(v) {
				continue
			}
			reach := s.Reach(v)
			if reach == nil {
				continue
			}
			if len(s.Cut(v)) > reach.Count() {
				return false
			}
			for _, e := range s.Cut(v) {
				if IsSink(e) {
					if !reach.Get(SinkPO(e)) {
						return false
					}
					continue
				}
				if e == v || !g.InTFO(v, e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
