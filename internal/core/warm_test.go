package core

import (
	"context"
	"fmt"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// coldPass is the from-scratch reference of one comprehensive pass over
// the engine's current state: a fresh disjoint-cut set, a fresh full CPM
// and a memo-less evaluation. It leaves the engine's analysis state (cuts,
// cache, memo) untouched.
type coldPass struct {
	bests           []lac.NodeBest
	cuts, cpm, eval int64 // deterministic work of each analysis step
}

func coldReference(t *testing.T, e *engine) coldPass {
	t.Helper()
	ctx := context.Background()
	cuts, err := cut.NewSet(ctx, e.g, e.opt.Threads)
	if err != nil {
		t.Fatal(err)
	}
	targets := e.liveTargets()
	upd, err := cpm.NewCache(e.g, e.s).Rows(ctx, cuts, targets, e.opt.Threads)
	if err != nil {
		t.Fatal(err)
	}
	bests, ew, _, _, err := lac.Evaluate(ctx, e.gen, upd.Res, e.st, targets, e.opt.Threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return coldPass{bests: bests, cuts: cuts.Work(), cpm: upd.Work, eval: ew}
}

// matchCold reports the first difference between one engine pass — its
// bests and the CPM/Eval work it charged — and the cold reference.
func matchCold(bests []lac.NodeBest, cpmWork, evalWork int64, ref coldPass) string {
	if cpmWork != ref.cpm || evalWork != ref.eval {
		return fmt.Sprintf("charged work cpm/eval %d/%d, cold %d/%d", cpmWork, evalWork, ref.cpm, ref.eval)
	}
	if len(bests) != len(ref.bests) {
		return fmt.Sprintf("%d bests, cold %d", len(bests), len(ref.bests))
	}
	for i := range bests {
		if bests[i] != ref.bests[i] {
			return fmt.Sprintf("best[%d] = %+v, cold %+v", i, bests[i], ref.bests[i])
		}
	}
	return ""
}

// diffEngine builds an engine ready to drive a flow's steps directly, the
// way Run sets one up.
func diffEngine(t *testing.T, g *aig.Graph, flow Flow, threads int) *engine {
	t.Helper()
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{
		Flow: flow, Metric: metric.MSE, Threshold: R * R,
		Patterns: 1024, Seed: 7, Threads: threads, UseConstLACs: true,
		UseSASIMILACs: true,
	}
	e, err := newEngine(g, opt.Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	e.ctx = context.Background()
	return e
}

// TestWarmComprehensiveMatchesCold is the differential contract of the
// shared analysis path: every comprehensive pass — warm-started from the
// incrementally maintained cuts, CPM cache rows and evaluation memo in the
// dual-phase flows, or a full recompute in the conventional and AccALS
// flows — must return exactly the bests of a from-scratch cut.NewSet +
// fresh cpm.Cache + memo-less lac.Evaluate on the same state, and charge
// exactly the cold CPM and evaluation work DP-SA's self-adaption profiles.
// SASIMI LACs are enabled so the candidate space includes the
// fanout-growing substitutions whose cut repairs are the hardest to keep
// in sync; the random circuits widen the structural coverage beyond the
// multiplier.
func TestWarmComprehensiveMatchesCold(t *testing.T) {
	circuits := []struct {
		name string
		g    *aig.Graph
	}{
		{"MultU6x6", gen.MultU(6, 6)},
		{"Random3", gen.Random(3, 9, 7, 120)},
		{"Random5", gen.Random(5, 10, 8, 150)},
		{"Random8", gen.Random(8, 8, 6, 100)},
	}
	threadCounts := []int{1, 4}
	if testing.Short() {
		// Keeps the -race run affordable; the parallel path is the one
		// the race detector needs.
		circuits, threadCounts = circuits[:2], []int{4}
	}
	for _, fc := range []struct {
		name string
		flow Flow
	}{
		{"DP", FlowDP},
		{"DP-SA", FlowDPSA},
		{"Conventional", FlowConventional},
		{"AccALS", FlowAccALS},
	} {
		t.Run(fc.name, func(t *testing.T) {
			var warm, rollbacks int
			var reused, hits int64
			for _, c := range circuits {
				for _, threads := range threadCounts {
					e := diffEngine(t, c.g, fc.flow, threads)
					where := fmt.Sprintf("%s threads=%d", c.name, threads)
					if fc.flow == FlowDP || fc.flow == FlowDPSA {
						checkDualPhaseRounds(t, e, where)
					} else {
						checkSinglePhasePasses(t, e, where)
					}
					warm += e.stats.WarmComprehensive
					rollbacks += e.stats.Rollbacks
					reused += e.stats.Phase1RowsReused
					hits += e.stats.EvalMemoHits
				}
			}
			// Every reuse layer must actually have served something, or the
			// comparisons above prove nothing about it.
			if (fc.flow == FlowDP || fc.flow == FlowDPSA) && (warm == 0 || reused == 0 || hits == 0) {
				t.Fatalf("vacuous differential: %d warm passes, %d phase-1 rows reused, %d memo hits",
					warm, reused, hits)
			}
			// AccALS rollbacks drop the cache; the pass after one must
			// rebuild a fresh cache that still matches the cold reference.
			if fc.flow == FlowAccALS && rollbacks == 0 {
				t.Fatal("no AccALS rollback: the cache-drop path went untested")
			}
		})
	}
}

// checkDualPhaseRounds drives dual-phase rounds to completion, comparing
// each round's phase-1 pass (observed through the round's first
// OnIteration) with a cold reference taken just before the round.
func checkDualPhaseRounds(t *testing.T, e *engine, where string) {
	t.Helper()
	e.incCuts = true
	e.memo = lac.NewMemo(e.g.NumVars())
	const M, N = 8, 2
	var first []lac.NodeBest
	var atFirst Stats
	e.hooks.OnIteration = func(_ int, _ lac.NodeBest, bests []lac.NodeBest) {
		if first == nil {
			first, atFirst = bests, e.stats
		}
	}
	for round := 0; ; round++ {
		ref := coldReference(t, e)
		warm := e.warmStart()
		// A warm pass charges the recorded cut work instead of rebuilding.
		if warm && e.cuts.FullBuildWork() != ref.cuts {
			t.Fatalf("%s round %d: warm cut charge %d, cold build %d", where, round, e.cuts.FullBuildWork(), ref.cuts)
		}
		before := e.stats
		first = nil
		sp := e.root.Child("round")
		stop := e.dualPhaseRound(sp, M, N, e.opt.Flow == FlowDPSA)
		sp.End()
		if first == nil {
			// No candidate fit the budget: the cold pass must agree.
			if len(ref.bests) > 0 && ref.bests[0].Best.Err <= e.opt.Threshold {
				t.Fatalf("%s round %d: engine stopped, cold pass still has %+v", where, round, ref.bests[0])
			}
		} else if d := matchCold(first, atFirst.CPMWork-before.CPMWork, atFirst.EvalWork-before.EvalWork, ref); d != "" {
			t.Fatalf("%s round %d (warm=%v): %s", where, round, warm, d)
		}
		if stop {
			break
		}
	}
}

// checkSinglePhasePasses runs the conventional or AccALS flow for up to 30
// applied LACs. Every pass's bests reach OnIteration, and the state after
// an iteration's last callback is the state the next pass analyses, so
// the cold reference for the next pass is taken at each callback.
func checkSinglePhasePasses(t *testing.T, e *engine, where string) {
	t.Helper()
	e.opt.MaxIters = 30
	ref := coldReference(t, e)
	at := e.stats
	var last *lac.NodeBest // identifies the pass an AccALS batch came from
	passes := 0
	e.hooks.OnIteration = func(_ int, _ lac.NodeBest, bests []lac.NodeBest) {
		if &bests[0] != last {
			last = &bests[0]
			passes++
			w := e.stats
			if d := matchCold(bests, w.CPMWork-at.CPMWork, w.EvalWork-at.EvalWork, ref); d != "" {
				t.Fatalf("%s pass %d: %s", where, passes, d)
			}
		}
		ref, at = coldReference(t, e), e.stats
	}
	if e.opt.Flow == FlowAccALS {
		e.runAccALS()
	} else {
		e.runSinglePhase(e.comprehensive, false)
	}
	if passes < 2 || e.stats.CPMRowsRecomputed == 0 {
		t.Fatalf("%s: vacuous differential: %d passes, %d rows through the cache",
			where, passes, e.stats.CPMRowsRecomputed)
	}
}

// TestWarmReuseReportsNonzeroCounters pins the observability side of the
// reuse: a multi-round dual-phase run must reuse CPM rows in its warm
// phase-1 passes and report the skipped work it charged.
func TestWarmReuseReportsNonzeroCounters(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{
		Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R,
		Patterns: 1024, Seed: 7, MaxIters: 25, M: 8, UseConstLACs: true,
		UseSASIMILACs: true,
	}
	res, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.WarmComprehensive == 0 {
		t.Fatal("no warm pass; M too large for the iteration budget?")
	}
	if st.Phase1RowsReused == 0 {
		t.Error("warm passes reused no CPM rows")
	}
	if st.CutSkipped == 0 || st.CPMSkipped == 0 {
		t.Errorf("no skipped work charged: cuts %d, cpm %d", st.CutSkipped, st.CPMSkipped)
	}
	if st.SkippedWork() != st.CutSkipped+st.CPMSkipped+st.EvalSkipped {
		t.Errorf("SkippedWork %d is not the sum of its parts", st.SkippedWork())
	}
	if r := st.Phase1ReuseRate(); r <= 0 || r > 1 {
		t.Errorf("Phase1ReuseRate = %v, want in (0,1]", r)
	}
}

// TestComprehensiveCancelKeepsPreviousCuts is the regression test for the
// half-built-cut-set bug: a comprehensive pass whose cut construction is
// cancelled must leave e.cuts exactly as it found it — nil on a fresh
// engine, or the previous complete set — never a partially built one that a
// later warm start or phase-2 closure would trust.
func TestComprehensiveCancelKeepsPreviousCuts(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 512, Seed: 3}
	mk := func() (*engine, context.CancelFunc) {
		e, err := newEngine(g, opt.Resolved(), Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.ctx = ctx
		e.incCuts = true
		return e, cancel
	}

	// Fresh engine, pre-cancelled context: no cuts may appear.
	e, cancel := mk()
	cancel()
	if bests := e.comprehensive(e.root); bests != nil {
		t.Fatalf("cancelled pass returned %d bests", len(bests))
	}
	if e.cuts != nil {
		t.Fatal("cancelled first pass stored a (half-built) cut set")
	}

	// Established engine: a complete pass, an applied LAC keeping the set in
	// sync, then a cancelled pass — the previous set must survive untouched
	// and still count as warm for the next attempt.
	e, cancel = mk()
	bests := e.comprehensive(e.root)
	if len(bests) == 0 {
		t.Fatal("no candidates on the seed circuit")
	}
	e.apply(bests[0].Best.LAC)
	prev := e.cuts
	if prev == nil || !prev.InSync() {
		t.Fatal("setup: expected a complete, in-sync cut set after apply")
	}
	e.incCuts = false // force the cold path, where the bug lived
	cancel()
	if bests := e.comprehensive(e.root); bests != nil {
		t.Fatalf("cancelled pass returned %d bests", len(bests))
	}
	if e.cuts != prev {
		t.Fatal("cancelled rebuild replaced the previous complete cut set")
	}
	if !e.cuts.InSync() {
		t.Fatal("previous set lost sync without any graph change")
	}
}

// TestRollbackThenComprehensiveRebuildsCold: restore() drops the analysis
// state, so the pass after a rollback must run cold and produce the same
// evaluation a fresh engine over the same circuit produces.
func TestRollbackThenComprehensiveRebuildsCold(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 512, Seed: 3}
	e, err := newEngine(g, opt.Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	e.ctx = context.Background()
	e.incCuts = true
	e.memo = lac.NewMemo(e.g.NumVars())

	ref := e.comprehensive(e.root)
	if len(ref) == 0 {
		t.Fatal("no candidates on the seed circuit")
	}
	sn := e.snapshot()
	e.apply(ref[0].Best.LAC)
	if !e.warmStart() {
		t.Fatal("setup: engine not warm after an in-sync apply")
	}
	e.restore(sn)
	if e.warmStart() {
		t.Fatal("rollback left the engine claiming a warm start")
	}
	warmAfter := e.stats.WarmComprehensive
	again := e.comprehensive(e.root)
	if e.stats.WarmComprehensive != warmAfter {
		t.Fatal("pass after rollback counted as warm")
	}
	if len(again) != len(ref) {
		t.Fatalf("post-rollback pass found %d bests, fresh pass found %d", len(again), len(ref))
	}
	for i := range ref {
		if again[i].Node != ref[i].Node || again[i].Best.Err != ref[i].Best.Err {
			t.Fatalf("best[%d]: post-rollback {%d %v}, fresh {%d %v}",
				i, again[i].Node, again[i].Best.Err, ref[i].Node, ref[i].Best.Err)
		}
	}
}

// TestRollbackKeepsMaxPerNode: DP-SA's step-3 rule halves the per-node
// SASIMI budget, and a rollback must not silently undo it while M and N
// survive.
func TestRollbackKeepsMaxPerNode(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 512, Seed: 3, UseSASIMILACs: true}
	e, err := newEngine(g, opt.Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	e.ctx = context.Background()
	sn := e.snapshot()
	e.gen.SetMaxPerNode(e.gen.MaxPerNode() / 2)
	want := e.gen.MaxPerNode()
	e.restore(sn)
	if got := e.gen.MaxPerNode(); got != want {
		t.Fatalf("MaxPerNode after rollback = %d, want the tuned %d", got, want)
	}
}
