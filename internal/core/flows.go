package core

import (
	"math"

	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/obs"
)

// comprehensive performs the full error analysis of Fig. 3(b): disjoint
// cuts of every node, full CPM, evaluation of every candidate LAC. It
// returns the per-node bests sorted by ascending error. The CPM rows of
// every disjoint-cut flow live in the engine's cpm.Cache: a cold pass hands
// it a new cut set, so every row is recomputed, on diff vectors recycled
// from the previous pass through the cache's arena.
//
// Cross-round warm start (the paper's §III-B/§III-C reuse applied at round
// granularity): in dual-phase flows the engine repairs the cut set and
// invalidates the CPM cache after *every* apply, so when the set is still
// in sync at the next round boundary the pass reuses that state instead of
// discarding it — the cuts are taken as-is (charged at their recorded
// cold-equivalent cost), the CPM recomputes only the rows the
// accumulated changes invalidated, and the evaluation memo serves targets
// whose state did not change since their last evaluation. Every reuse is
// bit-identical to the cold computation; when the repair chain was broken
// (first round, rollback, cancelled build) or the flow does not repair cuts
// (conventional, AccALS) the pass falls back to the cold rebuild below.
//
// Cancellation makes every step return early at a wave boundary; the
// partial analysis is discarded (nil bests, half-built state dropped) and
// the caller must check e.cancelled() before interpreting nil as "no
// candidates".
func (e *engine) comprehensive(parent *obs.Span) []lac.NodeBest {
	p1 := parent.Child("phase1")
	defer p1.End()
	warm := e.warmStart()
	if warm {
		// The cuts are already exact for the current graph; charge the
		// deterministic cost a cold build would have reported so the DP-SA
		// work profile is warm-invariant.
		sp, _ := e.step(p1, "cuts.warm")
		charged := e.cuts.FullBuildWork()
		sp.SetInt("charged_work", charged)
		sp.End()
		e.stats.CutWork += charged
		e.stats.CutSkipped += charged
		e.stats.WarmComprehensive++
	} else {
		sp, ctx := e.step(p1, "cuts")
		cuts, err := cut.NewSet(ctx, e.g, e.opt.Threads)
		sp.SetInt("work", cuts.Work())
		sp.End()
		e.stats.CutWork += cuts.Work()
		if err != nil {
			// Cancelled mid-build: the set is incomplete and must not be
			// stored — a later warm start or phase-2 closure would trust
			// half-built cuts. e.cuts keeps its previous value (nil, or a
			// complete set the unchanged graph still matches).
			return nil
		}
		e.cuts = cuts
	}
	if e.cache == nil {
		e.cache = cpm.NewCache(e.g, e.s)
	}
	targets := e.liveTargets()
	name := "cpm"
	if warm {
		name = "cpm.warm"
	}
	sp, ctx := e.step(p1, name)
	upd, err := e.cache.Rows(ctx, e.cuts, targets, e.opt.Threads)
	if warm {
		sp.SetInt("rows_reused", int64(upd.Reused))
		if upd.Needed > 0 {
			sp.SetFloat("reuse_rate", float64(upd.Reused)/float64(upd.Needed))
		}
	}
	res := upd.Res
	// Work + ReusedWork == the cold build's deterministic estimate. A cold
	// pass adopts a new cut set, so it reuses nothing.
	e.stats.CPMWork += upd.Work + upd.ReusedWork
	e.stats.CPMSkipped += upd.ReusedWork
	e.stats.CPMRowsReused += int64(upd.Reused)
	e.stats.Phase1RowsReused += int64(upd.Reused)
	e.stats.CPMRowsRecomputed += int64(upd.Recomputed)
	e.stats.Phase1RowsRecomputed += int64(upd.Recomputed)
	sp.SetInt("rows_recomputed", int64(upd.Recomputed))
	sp.SetInt("work", upd.Work)
	sp.End()
	if err != nil {
		return nil
	}
	bests, err := e.evaluate(p1, res, targets)
	if err != nil {
		return nil
	}
	e.stats.Comprehensive++
	return bests
}

// evaluate is step (3) of every analysis: it scores the candidate LACs of
// targets against the CPM res in an "eval" span under parent and returns
// the per-node bests sorted by ascending error. Work is charged at its
// cold-equivalent cost, memo-served evaluations included (e.memo is nil
// outside the dual-phase flows). An evaluation that scored through fold
// records (phase 2) records on its span how many candidate mask words
// they served (words_reused) and how many were folded afresh
// (words_refolded). It is also the flip-diff-bit fault site: one
// opportunity per analysis.
func (e *engine) evaluate(parent *obs.Span, res *cpm.Result, targets []int32) ([]lac.NodeBest, error) {
	if e.fire(fault.FlipDiffBit) {
		res.FlipDiffBit(e.hooks.Fault.Opportunities())
	}
	sp, ctx := e.step(parent, "eval")
	r0, f0 := e.memo.FoldWords()
	bests, work, reused, hits, err := lac.Evaluate(ctx, e.gen, res, e.st, targets, e.opt.Threads, e.memo)
	sp.SetInt("targets", int64(len(targets)))
	sp.SetInt("lacs_best", int64(len(bests)))
	sp.SetInt("work", work)
	sp.SetInt("memo_hits", int64(hits))
	if r, f := e.memo.FoldWords(); r+f > r0+f0 {
		sp.SetInt("words_reused", r-r0)
		sp.SetInt("words_refolded", f-f0)
	}
	sp.End()
	e.stats.EvalWork += work
	e.stats.EvalSkipped += reused
	e.stats.EvalMemoHits += int64(hits)
	return bests, err
}

// fits reports whether the best LAC of an analysis fits the error
// budget. It is the one budget test of every flow.
func (e *engine) fits(bests []lac.NodeBest) bool {
	return len(bests) > 0 && bests[0].Best.Err <= e.opt.Threshold
}

// accept is the accept step of every flow: it commits chosen, picked from
// the analysis bests, as the next iteration and reports whether the flow
// must stop. With validate the estimate may be wrong, so the apply is
// checked against the real (sampled) error and rolled back on violation.
// An accepted LAC is reported (see report), then passes the WCE
// checkpoint; a failed certification stops the flow, because the engine
// kept the longest certified prefix and re-proposing the violator would
// loop forever.
func (e *engine) accept(chosen lac.NodeBest, bests []lac.NodeBest, validate bool) (stop bool) {
	var sn snapshot
	if validate {
		sn = e.snapshot()
	}
	e.apply(chosen.Best.LAC)
	if validate && e.st.Error() > e.opt.Threshold {
		e.restore(sn)
		e.stats.StopReason = StopBudget
		return true
	}
	e.report(e.stats.Applied, chosen, bests)
	return e.wceCheckpoint(false)
}

// acceptBest is one iteration's decision after a full analysis: stop if
// the run was cancelled (the analysis returned nil bests) or no LAC fits
// the budget, else accept the best LAC.
func (e *engine) acceptBest(bests []lac.NodeBest, validate bool) (stop bool) {
	if e.cancelled() {
		return true
	}
	if !e.fits(bests) {
		e.stats.StopReason = StopBudget
		return true
	}
	return e.accept(bests[0], bests, validate)
}

// runSinglePhase is the flow of Fig. 3(a): every iteration performs a full
// analysis and accepts the single LAC with the smallest error, until no
// candidate fits the budget. The conventional flow analyses with
// comprehensive; the original VECBEE baseline with vecbeeAnalysis, whose
// depth-limited estimate can be wrong, so validate rolls a violating apply
// back.
func (e *engine) runSinglePhase(analyse func(*obs.Span) []lac.NodeBest, validate bool) {
	for !e.stopped() {
		if e.acceptBest(analyse(e.root), validate) {
			return
		}
	}
}

// vecbeeAnalysis is one analysis of the original VECBEE baseline: the
// one-cut CPM with depth limit l plus LAC evaluation, recorded as a
// phase-1 span like every other full analysis. With l=∞ the estimate is
// exact. Like comprehensive it returns nil bests when the run was
// cancelled mid-analysis.
func (e *engine) vecbeeAnalysis(parent *obs.Span) []lac.NodeBest {
	p1 := parent.Child("phase1")
	defer p1.End()
	sp, ctx := e.step(p1, "cpm")
	res, err := cpm.BuildVECBEE(ctx, e.g, e.s, e.opt.DepthLimit, e.opt.Threads)
	sp.SetInt("work", res.Work)
	sp.End()
	e.stats.CPMWork += res.Work
	if err != nil {
		return nil
	}
	bests, err := e.evaluate(p1, res, e.liveTargets())
	if err != nil {
		return nil
	}
	e.stats.Comprehensive++
	return bests
}

// runAccALS re-implements AccALS [14]: each iteration selects multiple
// LACs greedily on the estimated error, applies them in a batch, and
// validates against the real (sampled) error. When the batch violates the
// bound or deviates too much from the estimate, it rolls back and applies
// only the single best LAC — the SEALS fallback the paper describes.
func (e *engine) runAccALS() {
	for !e.stopped() {
		bests := e.comprehensive(e.root)
		if e.cancelled() {
			return
		}
		if !e.fits(bests) {
			e.stats.StopReason = StopBudget
			return
		}
		cur := e.st.Error()
		// Greedy multi-selection on estimated combined error.
		var sel []lac.NodeBest
		est := cur
		for _, nb := range bests {
			inc := nb.Best.Err - cur
			if inc < 0 {
				inc = 0
			}
			if est+inc > e.opt.Threshold {
				break // sorted by error: later candidates are no better
			}
			sel = append(sel, nb)
			est += inc
			if len(sel) == accMaxMulti {
				break
			}
		}
		if len(sel) > 1 {
			sn := e.snapshot()
			// Apply the batch but hold the reports until it validates: a
			// rolled-back batch must not be observed, and its iteration
			// numbers must not be consumed (restore uncounts them, so the
			// fallback single LAC reuses the first).
			var applied []lac.NodeBest
			for _, nb := range sel {
				if e.applicable(nb.Best.LAC) {
					e.apply(nb.Best.LAC)
					applied = append(applied, nb)
				}
			}
			real := e.st.Error()
			if real <= e.opt.Threshold && math.Abs(real-est) <= accTol*math.Max(est, 1e-12) {
				for i, nb := range applied {
					e.report(sn.applied+i+1, nb, bests)
				}
				if e.wceCheckpoint(false) {
					return
				}
				continue
			}
			// Estimate was unreliable: fall back to a single LAC (SEALS).
			e.restore(sn)
		}
		if e.accept(bests[0], bests, false) {
			return
		}
	}
}

// runDualPhase is the paper's contribution (Fig. 3(c)): dual-phase rounds
// of one comprehensive analysis followed by up to N incremental
// iterations restricted to the candidate set S_cand. With selfAdapt the
// two §III-D techniques are enabled: parameter tuning from the step-work
// profile of the last dual phase, and the adaptive early stop of phase 2.
func (e *engine) runDualPhase(selfAdapt bool) {
	e.incCuts = true
	// Cross-round evaluation memo: phase-2 evaluations not followed by an
	// apply stay valid into the next comprehensive pass.
	e.memo = lac.NewMemo(e.g.NumVars())
	M := e.opt.M
	if M <= 0 {
		if e.nodesBefore < 4000 {
			M = 60
		} else {
			M = 150
		}
	}
	N := e.opt.N
	if N <= 0 {
		N = max(M/3, 1)
	}

	for {
		if e.stopped() {
			return
		}
		cut0, cpm0, eval0 := e.stats.CutWork, e.stats.CPMWork, e.stats.EvalWork
		round := e.root.Child("round")
		round.SetInt("M", int64(M))
		round.SetInt("N", int64(N))
		stop := e.dualPhaseRound(round, M, N, selfAdapt)
		round.End()
		if stop {
			return
		}

		// ---------- Self-adaption: tune parameters from the last phase ----------
		// The paper profiles the steps by runtime; here the profile is the
		// deterministic work estimate (word operations), which tracks
		// serial runtime but is identical between runs regardless of
		// Threads, machine, or load — so the tuned trajectory, and with it
		// the whole DP-SA flow, stays bit-reproducible.
		if selfAdapt {
			dCut := e.stats.CutWork - cut0
			dCPM := e.stats.CPMWork - cpm0
			dEval := e.stats.EvalWork - eval0
			total := dCut + dCPM + dEval
			if total > 0 {
				switch {
				case dCut*2 > total:
					// Step 1 dominates: growing M amortises the
					// comprehensive pass over more phase-2 iterations
					// without increasing the incremental cut work.
					M = max(int(float64(M)*(1+rInc)), M+1)
				case dCPM*2 > total:
					// Step 2 dominates: shrink the candidate set so fewer
					// CPM entries are rebuilt per iteration.
					M = max(int(float64(M)*(1-rInc)), 6)
				case dEval*2 > total:
					// Step 3 dominates: fewer LACs per target node. With
					// constant LACs there are only two per node and nothing
					// to reduce; shrinking M instead would buy more
					// comprehensive passes, so leave the parameters alone.
					if e.opt.UseSASIMILACs && e.gen.MaxPerNode() > 1 {
						e.gen.SetMaxPerNode(e.gen.MaxPerNode() / 2)
						// Fewer candidates per node: memoized bests were
						// picked from a larger candidate set.
						e.memo.Invalidate()
					}
				}
				N = max(M/3, 1)
			}
			e.stats.MTrace = append(e.stats.MTrace, M)
		}
	}
}

// dualPhaseRound runs one round of the dual-phase framework under the given
// round span: phase 1 is one iteration of the single-phase loop (a
// comprehensive analysis, then accept its best LAC), phase 2 up to N
// incremental iterations restricted to the candidate set S_cand of the M
// best remaining nodes. It reports whether the whole flow should stop
// (error budget exhausted, iteration cap reached, or run cancelled).
func (e *engine) dualPhaseRound(round *obs.Span, M, N int, selfAdapt bool) (stop bool) {
	// Applies of this round nest their spans under the round.
	e.cur = round
	defer func() { e.cur = e.root }()

	// ---------- Phase 1: comprehensive analysis ----------
	E0 := e.st.Error() // error at the start of this dual-phase iteration
	// Fold records serve phase-2 re-scoring only: a comprehensive pass
	// scores every node once, and little of its work recurs.
	e.memo.DropFolds()
	bests := e.comprehensive(round)
	if e.acceptBest(bests, false) {
		return true
	}
	// Candidate set: the M remaining nodes with the smallest errors that
	// are still live. An apply kills exactly its target and the target's
	// MFFC, so liveness is all S_cand has to track, here and after every
	// phase-2 apply.
	var scand []int32
	for _, nb := range bests[1:] {
		if len(scand) == M {
			break
		}
		if e.g.IsAnd(nb.Node) {
			scand = append(scand, nb.Node)
		}
	}
	e.memo.KeepFolds(scand)

	// ---------- Phase 2: incremental analysis ----------
	p2 := round.Child("phase2")
	e.cur = p2
	iters0 := e.stats.Incremental
	defer func() {
		p2.SetInt("iters", int64(e.stats.Incremental-iters0))
		p2.End()
	}()
	sumEr := 0.0
	for it := 0; it < N && !e.reachedCap(); it++ {
		if e.cancelled() {
			return true
		}
		live := scand[:0]
		for _, v := range scand {
			if e.g.IsAnd(v) {
				live = append(live, v)
			}
		}
		scand = live
		if len(scand) == 0 {
			break
		}
		// Incremental analysis: serve the closure of S_cand from the
		// cache, recomputing only rows invalidated since the last
		// analysis — §III-C's reuse, bit-identical to a full rebuild.
		sp, ctx := e.step(p2, "cpm")
		sp.SetInt("scand", int64(len(scand)))
		upd, err := e.cache.Rows(ctx, e.cuts, scand, e.opt.Threads)
		res := upd.Res
		e.stats.CPMWork += upd.Work
		e.stats.CPMRowsReused += int64(upd.Reused)
		e.stats.CPMRowsRecomputed += int64(upd.Recomputed)
		sp.SetInt("rows_reused", int64(upd.Reused))
		sp.SetInt("rows_recomputed", int64(upd.Recomputed))
		sp.SetInt("work", upd.Work)
		sp.End()
		if err != nil {
			e.cancelled()
			return true
		}
		// The memo's NodeBests are write-mostly here (an apply separates
		// consecutive phase-2 evaluations, bumping the epoch): their value
		// is that the final evaluation of a round that exits *without*
		// applying stays fresh into the next comprehensive pass. Its fold
		// records are what an apply keeps: each S_cand target re-folds
		// only the pattern words the apply changed.
		bests2, err := e.evaluate(p2, res, scand)
		if err != nil {
			e.cancelled()
			return true
		}
		if !e.fits(bests2) {
			break
		}
		cand := bests2[0]
		er := 0.0
		if selfAdapt {
			E := e.st.Error()
			if einc := cand.Best.Err - E; einc > 0 {
				if E0 > 0 {
					er = einc / E0
				} else {
					er = math.Inf(1)
				}
			}
			Eb := e.opt.Threshold
			halt := false
			switch {
			case E <= boundRelax*Eb:
				// Far from the bound: unconstrained.
			case E <= boundStrict*Eb:
				halt = er > errIncLimit
			default:
				halt = sumEr+er > errIncLimit
			}
			if halt {
				break
			}
		}
		e.stats.Incremental++
		if e.accept(cand, bests2, false) {
			return true
		}
		sumEr += er
	}
	return false
}
