package cut

import (
	"context"
	"math/rand"
	"testing"

	"dpals/internal/aig"
)

// TestSyncTracking pins the InSync contract the engine's warm start relies
// on: a freshly built set is in sync, any graph change desyncs it,
// UpdateAfter restores sync, and ForceSync (the fault hook) claims sync
// without the repair.
func TestSyncTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 6, 60, 5)
	s, _ := NewSet(context.Background(), g, 1)
	if !s.InSync() {
		t.Fatal("fresh set not in sync")
	}
	var target int32 = -1
	for v := g.MaxVar(); v >= 1; v-- {
		if g.IsAnd(v) {
			target = v
			break
		}
	}
	cs := g.ReplaceWithLit(target, aig.False)
	if s.InSync() {
		t.Fatal("set still claims sync after a graph change")
	}
	s.UpdateAfter(cs)
	if !s.InSync() {
		t.Fatal("set not in sync after UpdateAfter")
	}

	// The fault hook: sync is claimed, the repair is not performed.
	for v := g.MaxVar(); v >= 1; v-- {
		if g.IsAnd(v) {
			target = v
			break
		}
	}
	g.ReplaceWithLit(target, aig.True)
	if s.InSync() {
		t.Fatal("set claims sync after second change")
	}
	s.ForceSync()
	if !s.InSync() {
		t.Fatal("ForceSync did not mark the set in sync")
	}
}

// TestCancelledBuildNotSynced: a build cancelled mid-way must never claim
// sync — the engine uses InSync as "safe to trust as-is".
func TestCancelledBuildNotSynced(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(rng, 7, 80, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSet(ctx, g, 1)
	if err == nil {
		t.Fatal("pre-cancelled build reported no error")
	}
	if s.InSync() {
		t.Fatal("cancelled build claims sync")
	}
}

// TestFullBuildWorkMatchesFresh is the charged-work contract behind the
// engine's warm-invariant DP-SA work profile: after any legal update
// sequence, FullBuildWork of the incrementally maintained set must equal
// the total work a cold NewSet over the current graph reports — per-node
// recomputation cost depends only on the node's current environment.
func TestFullBuildWorkMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 7, 80, 6)
		s, _ := NewSet(context.Background(), g, 1)
		if got, want := s.FullBuildWork(), s.Work(); got != want {
			t.Fatalf("trial %d: fresh set FullBuildWork %d != Work %d", trial, got, want)
		}
		for step := 0; step < 8; step++ {
			var cand []int32
			for v := int32(1); v <= g.MaxVar(); v++ {
				if g.IsAnd(v) {
					cand = append(cand, v)
				}
			}
			if len(cand) == 0 {
				break
			}
			v := cand[rng.Intn(len(cand))]
			var repl aig.Lit
			switch rng.Intn(3) {
			case 0:
				repl = aig.False
			case 1:
				repl = aig.MakeLit(g.PIs()[rng.Intn(g.NumPIs())], rng.Intn(2) == 1)
			default:
				var ok []int32
				for _, w := range cand {
					if w != v && !g.InTFO(v, w) {
						ok = append(ok, w)
					}
				}
				if len(ok) == 0 {
					repl = aig.True
				} else {
					repl = aig.MakeLit(ok[rng.Intn(len(ok))], rng.Intn(2) == 1)
				}
			}
			cs := g.ReplaceWithLit(v, repl)
			s.UpdateAfter(cs)
			fresh, _ := NewSet(context.Background(), g, 1)
			if got, want := s.FullBuildWork(), fresh.Work(); got != want {
				t.Fatalf("trial %d step %d: FullBuildWork %d, fresh cold build %d", trial, step, got, want)
			}
		}
	}
}
