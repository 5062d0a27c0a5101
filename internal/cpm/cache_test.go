package cpm

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/sim"
)

// compareRow fails unless the cached row of v is bit-identical — same PO
// order, same diff vectors — to the reference row.
func compareRow(t *testing.T, label string, v int32, got, want *Row) {
	t.Helper()
	if len(got.POs) != len(want.POs) {
		t.Fatalf("%s: node %d: %d POs, want %d", label, v, len(got.POs), len(want.POs))
	}
	for i := range want.POs {
		if got.POs[i] != want.POs[i] {
			t.Fatalf("%s: node %d: PO[%d] = %d, want %d", label, v, i, got.POs[i], want.POs[i])
		}
		if !got.Diffs[i].Equal(want.Diffs[i]) {
			t.Fatalf("%s: node %d PO %d: diff vector mismatch", label, v, want.POs[i])
		}
	}
}

// randomLAC picks a random legal replacement on g: constant 0/1, a PI, or a
// non-TFO node substitution (the SASIMI shape). Targets with multi-node
// MFFCs occur naturally, exercising MFFC removal.
func randomLAC(rng *rand.Rand, g *aig.Graph) (int32, aig.Lit, bool) {
	var cand []int32
	for v := int32(1); v <= g.MaxVar(); v++ {
		if g.IsAnd(v) {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return 0, aig.False, false
	}
	v := cand[rng.Intn(len(cand))]
	var repl aig.Lit
	switch rng.Intn(4) {
	case 0:
		repl = aig.False
	case 1:
		repl = aig.True
	case 2:
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
	return v, repl, true
}

// stepAcct is the per-step accounting a cache run produces; it must be
// identical for every thread count.
type stepAcct struct {
	needed, reused, recomputed int
	work                       int64
}

// runCacheSequence replays a seeded random LAC sequence against the cache
// and cross-checks every analysis bit-for-bit against a fresh cache's build
// over the same cut set. It returns the per-step accounting.
func runCacheSequence(t *testing.T, seed int64, threads int) []stepAcct {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, 7, 90, 6)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: seed, Threads: threads})
	cuts, _ := cut.NewSet(context.Background(), g, threads)
	cache := NewCache(g, s)

	var acct []stepAcct

	// Phase-1 equivalent: the full CPM, checked against brute force.
	upd, _ := cache.Rows(context.Background(), cuts, liveANDs(g), threads)
	for _, v := range liveANDs(g) {
		checkAgainstBruteForce(t, g, s, upd.Res, v)
	}
	acct = append(acct, stepAcct{upd.Needed, upd.Reused, upd.Recomputed, upd.Work})

	// Phase-2 equivalent: LAC, invalidate, partial analyses.
	for step := 0; step < 12; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed)

		// Random target set over the live nodes (like S_cand).
		live := liveANDs(g)
		if len(live) == 0 {
			break
		}
		var targets []int32
		for _, u := range live {
			if rng.Intn(3) != 0 {
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			targets = live[:1]
		}

		u, _ := cache.Rows(context.Background(), cuts, targets, threads)
		// The closure must equal a fresh partial build, whose work the
		// reused and recomputed rows must add up to.
		fc, refPart := freshRows(t, g, s, cuts, targets, threads)
		if u.Needed != refPart.Needed || u.Work+u.ReusedWork != refPart.Work {
			t.Fatalf("threads=%d step %d: Needed %d, Work+ReusedWork %d; fresh build %d, %d",
				threads, step, u.Needed, u.Work+u.ReusedWork, refPart.Needed, refPart.Work)
		}
		for _, w := range live {
			if fc.valid[w] {
				compareRow(t, "closure", w, u.Res.Row(w), refPart.Res.Row(w))
			}
		}
		// Every row the cache still holds valid, in the closure or not,
		// must equal a full fresh build.
		_, refFull := freshRows(t, g, s, cuts, live, threads)
		for w := int32(0); w <= g.MaxVar(); w++ {
			if cache.valid[w] {
				compareRow(t, "valid", w, u.Res.Row(w), refFull.Res.Row(w))
			}
		}
		acct = append(acct, stepAcct{u.Needed, u.Reused, u.Recomputed, u.Work})
	}
	return acct
}

// TestCacheMatchesFreshBuild is the differential test of the incremental
// CPM cache: across randomized LAC sequences (constants, PI and SASIMI
// substitutions, MFFC removals) every cache-served analysis must be
// bit-identical to a fresh cache's build on the same cut set, for
// every thread count — and the reuse/recompute accounting must be
// thread-independent.
func TestCacheMatchesFreshBuild(t *testing.T) {
	threadCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 4; trial++ {
		seed := int64(41 + 13*trial)
		var first []stepAcct
		totalReused := 0
		for _, threads := range threadCounts {
			acct := runCacheSequence(t, seed, threads)
			if first == nil {
				first = acct
				for _, a := range acct {
					totalReused += a.reused
				}
				continue
			}
			if len(acct) != len(first) {
				t.Fatalf("trial %d threads=%d: %d steps, want %d", trial, threads, len(acct), len(first))
			}
			for i := range acct {
				if acct[i] != first[i] {
					t.Fatalf("trial %d threads=%d step %d: accounting %+v, want %+v (thread-dependent cache behaviour)",
						trial, threads, i, acct[i], first[i])
				}
			}
		}
		if totalReused == 0 {
			t.Fatalf("trial %d: the cache never reused a row across the whole sequence", trial)
		}
	}
}

// TestCacheOnGeneratedCircuit runs the differential check on a structured
// arithmetic circuit from internal/gen (a multiplier), where MFFC removals
// and deep reconvergence are common.
func TestCacheOnGeneratedCircuit(t *testing.T) {
	g := gen.MultU(4, 4).Sweep()
	rng := rand.New(rand.NewSource(7))
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 7})
	cuts, _ := cut.NewSet(context.Background(), g, 0)
	cache := NewCache(g, s)
	cache.Rows(context.Background(), cuts, liveANDs(g), 0)
	reused := 0
	for step := 0; step < 8; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed)
		targets := liveANDs(g)
		if len(targets) == 0 {
			break
		}
		u, _ := cache.Rows(context.Background(), cuts, targets, 0)
		reused += u.Reused
		_, ref := freshRows(t, g, s, cuts, targets, 0)
		for _, w := range targets {
			compareRow(t, "mult", w, u.Res.Row(w), ref.Res.Row(w))
		}
	}
	if reused == 0 {
		t.Fatal("no rows reused on the generated circuit")
	}
}

// TestCachePoolRecycles checks the allocation story: after the first full
// build, invalidation/recompute cycles must predominantly serve diff
// vectors from the free-list pool instead of allocating.
func TestCachePoolRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 7, 120, 6)
	s := sim.New(g, sim.Options{Patterns: 256, Seed: 3})
	cuts, _ := cut.NewSet(context.Background(), g, 1)
	cache := NewCache(g, s)
	cache.Rows(context.Background(), cuts, liveANDs(g), 1)
	ps0 := cache.Arena().Stats()
	for step := 0; step < 6; step++ {
		v, repl, ok := randomLAC(rng, g)
		if !ok {
			break
		}
		cs := g.ReplaceWithLit(v, repl)
		changed := s.ResimulateFrom(cs.Rewired)
		cuts.UpdateAfter(cs)
		cache.Invalidate(cs, changed)
		cache.Rows(context.Background(), cuts, liveANDs(g), 1)
	}
	ps1 := cache.Arena().Stats()
	if ps1.Gets == ps0.Gets {
		t.Skip("no rows recomputed after the full build (degenerate sequence)")
	}
	if ps1.Reuses == 0 {
		t.Fatalf("pool never reused a vector (%d gets after the full build)", ps1.Gets-ps0.Gets)
	}
	if ps1.Gets != ps1.Reuses+ps1.Misses {
		t.Errorf("pool stats inconsistent: gets %d != reuses %d + misses %d", ps1.Gets, ps1.Reuses, ps1.Misses)
	}
	if ps1.Puts == 0 || ps1.HighWater == 0 {
		t.Errorf("pool stats missing recycle accounting: %+v", ps1)
	}
}

// countdownCtx is a context whose Err turns to context.Canceled after n
// calls. Package par checks Err before every item, so it cancels a build
// after about n rows.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRowsCancelled pins the cancellation contract of Rows, for a context
// cancelled before the call and one cancelled midway through the
// recompute: Rows returns the context's error, rows valid before the call
// stay valid and unchanged, and no stale row of the closure is left valid
// (or holding half-built entries). A cut set adopted under cancellation
// stays adopted with no valid row, and the next uncancelled Rows equals a
// fresh cache's build.
func TestRowsCancelled(t *testing.T) {
	for _, threads := range []int{1, 2} {
		rng := rand.New(rand.NewSource(61))
		g := randomGraph(rng, 7, 90, 6)
		s := sim.New(g, sim.Options{Patterns: 256, Seed: 61})
		cuts, _ := cut.NewSet(context.Background(), g, 1)
		cache := NewCache(g, s)
		cache.Rows(context.Background(), cuts, liveANDs(g), threads)
		for step := 0; step < 3; step++ {
			v, repl, ok := randomLAC(rng, g)
			if !ok {
				break
			}
			cs := g.ReplaceWithLit(v, repl)
			changed := s.ResimulateFrom(cs.Rewired)
			cuts.UpdateAfter(cs)
			cache.Invalidate(cs, changed)
		}
		live := liveANDs(g)
		var stale []int32
		for _, v := range live {
			if !cache.valid[v] {
				stale = append(stale, v)
			}
		}
		if len(stale) < 2 {
			t.Fatalf("threads=%d: only %d stale rows after the LAC sequence", threads, len(stale))
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		midway := &countdownCtx{Context: context.Background()}
		midway.n.Store(int64(len(stale) / 2))
		for _, tc := range []struct {
			label string
			ctx   context.Context
		}{{"pre-cancelled", cancelled}, {"midway", midway}} {
			label := tc.label
			kept := map[int32]Row{}
			for v := int32(0); v <= g.MaxVar(); v++ {
				if cache.valid[v] {
					row := cache.res.Row(v)
					cp := Row{POs: slices.Clone(row.POs)}
					for _, d := range row.Diffs {
						cp.Diffs = append(cp.Diffs, slices.Clone(d))
					}
					kept[v] = cp
				}
			}
			workBefore := cache.res.Work
			if _, err := cache.Rows(tc.ctx, cuts, live, threads); !errors.Is(err, context.Canceled) {
				t.Fatalf("threads=%d %s: Rows returned %v, want context.Canceled", threads, label, err)
			}
			if tc.ctx == midway && cache.res.Work == workBefore {
				t.Fatalf("threads=%d: the build was cancelled before it recomputed a row", threads)
			}
			for v, row := range kept {
				if !cache.valid[v] {
					t.Fatalf("threads=%d %s: row %d was valid before the call and is not after it", threads, label, v)
				}
				compareRow(t, label, v, cache.res.Row(v), &row)
			}
			for _, v := range stale {
				if cache.valid[v] || cache.res.Has(v) {
					t.Fatalf("threads=%d %s: stale row %d left valid=%v with %d entries",
						threads, label, v, cache.valid[v], len(cache.res.Row(v).POs))
				}
			}
		}

		rebuilt, _ := cut.NewSet(context.Background(), g, 1)
		if _, err := cache.Rows(cancelled, rebuilt, live, threads); !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d adoption: Rows returned %v, want context.Canceled", threads, err)
		}
		for v := int32(0); v <= g.MaxVar(); v++ {
			if cache.valid[v] || cache.res.Has(v) {
				t.Fatalf("threads=%d adoption: row %d survived a change of cut set", threads, v)
			}
		}
		upd, err := cache.Rows(context.Background(), rebuilt, live, threads)
		if err != nil {
			t.Fatal(err)
		}
		_, ref := freshRows(t, g, s, rebuilt, live, threads)
		if upd.Recomputed != ref.Recomputed || upd.Work != ref.Work {
			t.Fatalf("threads=%d adoption: %d rows / %d work recomputed, fresh build %d / %d",
				threads, upd.Recomputed, upd.Work, ref.Recomputed, ref.Work)
		}
		equalResults(t, "adoption", g, upd.Res, ref.Res)
	}
}
