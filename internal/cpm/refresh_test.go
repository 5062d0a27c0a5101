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
// invalidation, Rows over all live nodes must produce rows bit-identical
// to a fresh cache's build over the same cut set, reuse at least one row,
// and report Work + ReusedWork equal to the fresh build's deterministic
// work estimate — the amount the engine charges so the DP-SA work profile
// is warm-invariant.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, threads := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rng := rand.New(rand.NewSource(53))
		g := randomGraph(rng, 7, 90, 6)
		s := sim.New(g, sim.Options{Patterns: 256, Seed: 53, Threads: threads})
		cuts, _ := cut.NewSet(context.Background(), g, threads)
		cache := NewCache(g, s)
		cache.Rows(context.Background(), cuts, liveANDs(g), threads)
		reused := 0
		for step := 0; step < 6; step++ {
			v, repl, ok := randomLAC(rng, g)
			if !ok {
				break
			}
			cs := g.ReplaceWithLit(v, repl)
			changed := s.ResimulateFrom(cs.Rewired)
			cuts.UpdateAfter(cs)
			cache.Invalidate(cs, changed)

			live := liveANDs(g)
			if len(live) == 0 {
				break
			}
			upd, _ := cache.Rows(context.Background(), cuts, live, threads)
			reused += upd.Reused

			_, ref := freshRows(t, g, s, cuts, live, threads)
			for _, w := range live {
				compareRow(t, "warm", w, upd.Res.Row(w), ref.Res.Row(w))
			}
			if got, want := upd.Work+upd.ReusedWork, ref.Work; got != want {
				t.Fatalf("threads=%d step %d: Work+ReusedWork = %d, fresh build work %d",
					threads, step, got, want)
			}
			if upd.Reused > 0 && upd.ReusedWork == 0 {
				t.Fatalf("threads=%d step %d: %d rows reused but no reused work recorded", threads, step, upd.Reused)
			}
		}
		if reused == 0 {
			t.Fatalf("threads=%d: Rows never reused a row across the sequence", threads)
		}
	}
}

// TestRefreshForeignCutsFallsBack: handed a cut set other than the one the
// cached rows were built against, Rows must adopt it and recompute every
// row — row validity is only meaningful relative to the producing set.
func TestRefreshForeignCutsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomGraph(rng, 6, 60, 5)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 59})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	live := liveANDs(g)
	cache := NewCache(g, s)
	cache.Rows(context.Background(), cuts, live, 1)

	rebuilt, _ := cut.NewSet(context.Background(), g, 1)
	upd, _ := cache.Rows(context.Background(), rebuilt, live, 1)
	if upd.Reused != 0 || upd.ReusedWork != 0 {
		t.Fatalf("foreign cut set: %d rows / %d work reused, want a full recompute", upd.Reused, upd.ReusedWork)
	}
	_, ref := freshRows(t, g, s, rebuilt, live, 1)
	if upd.Recomputed != ref.Recomputed || upd.Work != ref.Work {
		t.Fatalf("foreign cut set: %d rows / %d work recomputed, fresh build %d / %d",
			upd.Recomputed, upd.Work, ref.Recomputed, ref.Work)
	}
	for _, w := range live {
		compareRow(t, "fallback", w, upd.Res.Row(w), ref.Res.Row(w))
	}
}
