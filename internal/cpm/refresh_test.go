package cpm

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"dpals/internal/cut"
	"dpals/internal/sim"
)

// TestRefreshMatchesRebuild is the round-granularity differential of the
// warm phase-1 path: after a randomized LAC sequence with per-apply
// invalidation, Refresh over all live nodes must produce rows bit-identical
// to a cold Rebuild of a fresh cache over the same cut set, reuse at least
// one row, and report Work + ReusedWork equal to the cold build's
// deterministic work estimate — the amount the engine charges so the DP-SA
// work profile is warm-invariant.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, threads := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rng := rand.New(rand.NewSource(53))
		g := randomGraph(rng, 7, 90, 6)
		s := sim.New(g, sim.Options{Patterns: 256, Seed: 53, Threads: threads})
		cuts, _ := cut.NewSet(context.Background(), g, threads)
		cache := NewCache(g, s)
		cache.Rebuild(context.Background(), cuts, threads)
		reused := 0
		for step := 0; step < 6; step++ {
			v, repl, ok := randomLAC(rng, g)
			if !ok {
				break
			}
			cs := g.ReplaceWithLit(v, repl)
			changed := s.ResimulateFrom(cs.Rewired)
			sv := cuts.UpdateAfter(cs)
			cache.Invalidate(cs, changed, sv)

			var live []int32
			for _, u := range g.Topo() {
				if g.IsAnd(u) {
					live = append(live, u)
				}
			}
			if len(live) == 0 {
				break
			}
			upd, _ := cache.Refresh(context.Background(), cuts, live, threads)
			reused += upd.Reused

			fresh := NewCache(g, s)
			ref, _ := fresh.Rebuild(context.Background(), cuts, threads)
			for _, w := range live {
				compareRow(t, "refresh", w, upd.Res.Row(w), ref.Res.Row(w))
			}
			if got, want := upd.Work+upd.ReusedWork, ref.Work; got != want {
				t.Fatalf("threads=%d step %d: Work+ReusedWork = %d, cold rebuild work %d",
					threads, step, got, want)
			}
			if upd.Reused > 0 && upd.ReusedWork == 0 {
				t.Fatalf("threads=%d step %d: %d rows reused but no reused work recorded", threads, step, upd.Reused)
			}
		}
		if reused == 0 {
			t.Fatalf("threads=%d: Refresh never reused a row across the sequence", threads)
		}
	}
}

// TestRefreshForeignCutsFallsBack: handed a cut set other than the one the
// cached rows were built against, Refresh must degrade to a full rebuild —
// row validity is only meaningful relative to the producing set.
func TestRefreshForeignCutsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomGraph(rng, 6, 60, 5)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 59})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	cache := NewCache(g, s)
	cache.Rebuild(context.Background(), cuts, 1)

	var live []int32
	for _, u := range g.Topo() {
		if g.IsAnd(u) {
			live = append(live, u)
		}
	}
	rebuilt, _ := cut.NewSet(context.Background(), g, 1)
	upd, _ := cache.Refresh(context.Background(), rebuilt, live, 1)
	if upd.Reused != 0 || upd.ReusedWork != 0 {
		t.Fatalf("foreign cut set: %d rows / %d work reused, want full rebuild", upd.Reused, upd.ReusedWork)
	}
	ref, _ := BuildDisjoint(context.Background(), g, s, rebuilt, nil, 1)
	for _, w := range live {
		compareRow(t, "fallback", w, upd.Res.Row(w), ref.Row(w))
	}
}
