package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dpals/internal/aig"
	"dpals/internal/bitvec"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/equiv"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/obs"
	"dpals/internal/sim"
)

// Result of a synthesis run.
type Result struct {
	Graph *aig.Graph // approximate circuit, swept
	Error float64    // final error on the training patterns
	Stats Stats
}

// Run synthesises an approximate version of g under opt and returns the
// result; g itself is never modified. opt is resolved (Options.Resolved)
// and validated against g (Options.Validate) first; hooks carries the
// optional test and experiment callbacks. Cancellation is cooperative: when
// ctx is cancelled (or opt.TimeLimit expires) the run stops at the next
// checkpoint — an iteration boundary of the flow, or a wave boundary inside
// a running analysis — and returns the valid best-so-far result instead of
// an error. The returned circuit is swept, its Error is the genuine sampled
// error of that circuit, and it never exceeds the budget;
// Stats.StopReason tells whether the run completed (budget, max-iters) or
// was stopped (cancelled, deadline). An uncancelled run is bit-identical
// for every thread count. Errors are returned only for invalid
// configurations, never for cancellation. A nil ctx behaves like
// context.Background().
func Run(ctx context.Context, g *aig.Graph, opt Options, hooks Hooks) (*Result, error) {
	opt = opt.Resolved()
	if err := opt.Validate(g.NumPOs()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.Metric == metric.WCE {
		// The sampled metric and the candidate pruning share the budget
		// machinery of every other flow: the certified bound is the budget.
		opt.Threshold = float64(opt.WCEBound)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeLimit)
		defer cancel()
	}
	// The observability layer rides on the context: a tracer or progress
	// renderer installed by the caller is picked up here. Without a tracer
	// run is nil and so is every span below it. Tracing never writes
	// engine state, so a traced run is bit-identical to an untraced one.
	run := obs.FromContext(ctx).Start("run")
	run.SetStr("flow", opt.Flow.String())
	run.SetStr("metric", opt.Metric.String())
	run.SetFloat("threshold", opt.Threshold)
	run.SetInt("patterns", int64(opt.Patterns))
	run.SetInt("threads", int64(opt.Threads))
	init := run.Child("init")
	e, err := newEngine(g, opt, hooks)
	if err != nil {
		init.End()
		run.End()
		return nil, err
	}
	init.SetInt("ands", int64(e.nodesBefore))
	init.SetInt("words", int64(e.s.Words()))
	init.End()
	e.ctx = ctx
	e.root, e.cur = run, run
	e.prog = obs.ProgressFrom(ctx)
	start := time.Now()
	switch opt.Flow {
	case FlowConventional:
		e.runSinglePhase(e.comprehensive, false)
	case FlowVECBEE:
		e.runSinglePhase(e.vecbeeAnalysis, opt.DepthLimit > 0)
	case FlowAccALS:
		e.runAccALS()
	case FlowDP, FlowDPSA:
		e.runDualPhase(opt.Flow == FlowDPSA)
	}
	e.finalizeWCE()
	if e.stats.StopReason == "" {
		// Flows record the reason at their exit checkpoint (and a final
		// certification cut short by cancellation records it too); a flow
		// that returned without one completed naturally.
		e.stats.StopReason = StopBudget
	}
	e.stats.Runtime = time.Since(start)
	if e.cache != nil {
		e.stats.Pool = e.cache.Arena().Stats()
	}
	sw := run.Child("sweep")
	out := e.g.Sweep()
	sw.End()
	finalErr := e.st.Error()
	if hooks.Fault.Fire(fault.MisreportError) {
		// Seeded reporting bug: the circuit is faithful but the reported
		// error is not — the oracle's recompute-on-the-returned-circuit
		// cross-check must catch exactly this.
		finalErr += 1e-3 * (1 + math.Abs(finalErr))
	}
	run.SetInt("applied", int64(e.stats.Applied))
	run.SetInt("ands_after", int64(out.NumAnds()))
	run.SetFloat("error", finalErr)
	run.SetStr("stop_reason", string(e.stats.StopReason))
	if !e.cancelAt.IsZero() {
		// Cancellation latency: first observation of the dead context to
		// the end of the best-so-far wind-down.
		run.SetInt("cancel_latency_ns", time.Since(e.cancelAt).Nanoseconds())
	}
	run.End()
	e.prog.Done()
	return &Result{Graph: out, Error: finalErr, Stats: e.stats}, nil
}

// engine holds the mutable synthesis state shared by all flows.
type engine struct {
	opt   Options // resolved and validated
	hooks Hooks
	ctx   context.Context // run-scoped; checked at iteration and wave boundaries
	g     *aig.Graph
	s     *sim.Sim
	st    *metric.State
	cuts  *cut.Set   // nil for VECBEE flows
	cache *cpm.Cache // persistent incremental CPM (disjoint-cut flows; nil for VECBEE)
	gen   *lac.Generator
	memo  *lac.Memo // cross-round evaluation memo (dual-phase flows; nil otherwise)
	exact []bitvec.Vec
	stats Stats

	nodesBefore int // AND count of the swept input (sizes DP's default M)

	poScratch  bitvec.Vec
	targetsBuf []int32 // liveTargets scratch, reused across iterations
	incCuts    bool    // maintain cuts incrementally on apply (dual-phase flows)

	// WCE-constrained flow state (Metric == metric.WCE; ref is nil
	// otherwise). ref is the frozen reference every certificate compares
	// against. lastGood is the most recent certified state (the
	// pristine input, trivially certified at 0, until the first checkpoint
	// passes); pending records every LAC accepted since it, in order, for
	// the rollback-and-replay path of wceCheckpoint, together with the
	// OnIteration report it holds until certified; certWCE is the bound
	// lastGood is proven to satisfy, its exact worst case when an
	// enumeration proved it. When CertifiesByEnumeration holds,
	// certificates come from enumeration instead of SAT: enumCert is set
	// when the run's own patterns enumerate the input space, so the sampled
	// maximum is the true worst case; otherwise worst streams the
	// enumeration against ref's cached outputs.
	ref      *aig.Graph
	lastGood snapshot
	pending  []held
	certWCE  uint64
	enumCert bool
	worst    *sim.WorstCase

	// Observability (see internal/obs). root is the run-level span, nil
	// unless the caller installed a tracer in the context. cur is the span
	// new apply spans nest under; flows point it at their current phase.
	// prog is nil unless the caller installed it in the context.
	root     *obs.Span
	cur      *obs.Span
	prog     *obs.Progress
	cancelAt time.Time // first observation of a cancelled/expired context
}

// step opens a child span named name under parent and returns it together
// with the context analysis calls should run under: the context carries
// the span so par workers open their lane spans beneath it (an untraced
// run's nil span leaves the run context untouched).
func (e *engine) step(parent *obs.Span, name string) (*obs.Span, context.Context) {
	sp := parent.Child(name)
	return sp, obs.WithSpan(e.ctx, sp)
}

// SimOptions builds the simulator configuration a run under the resolved
// and validated opt uses; it is the only place that does. sim.New
// enumerates when the inputs are uniform and their space fits the budget,
// and samples otherwise. Exported so the verification oracle
// (internal/oracle) and dpals.MeasureError can recompute the error of a
// returned circuit on exactly the patterns the run trained on.
func SimOptions(opt Options) sim.Options {
	return sim.Options{Patterns: opt.Patterns, Seed: opt.Seed, Threads: opt.Threads, Probs: opt.InputProbabilities}
}

// enumBudget bounds a streamed enumeration: 2^inputs patterns times the
// reference's size (ANDs, or outputs if more), so that one check is about
// 2^20 word operations (a millisecond or so) and the cached reference
// outputs take at most 8 MiB.
const enumBudget = 1 << 26

// CertifiesByEnumeration reports whether a WCE run of g under the resolved
// opt proves its bound by enumerating the input space instead of by SAT.
// It is the one rule that decides, and it reads only sizes. The unsigned
// output weights must sum exactly, and either the run's patterns
// enumerate the input space (sim.Enumerates), so the maximum over them is
// the true worst case, or the space is small enough for a streamed
// enumeration (sim.WorstCase): 2^inputs × max(ANDs, outputs) ≤ 2^26. The
// engine passes its swept copy of the circuit; a caller holding an
// unswept one counts dead ANDs too, so it can only lean towards SAT.
func CertifiesByEnumeration(g *aig.Graph, opt Options) bool {
	if opt.Metric != metric.WCE || !metric.UnsignedWeights(g.NumPOs()).SumsExactly() {
		return false
	}
	n := g.NumPIs()
	return sim.Enumerates(n, SimOptions(opt)) ||
		n <= 26 && uint64(max(g.NumAnds(), g.NumPOs()))<<uint(n) <= enumBudget
}

func newEngine(orig *aig.Graph, opt Options, hooks Hooks) (*engine, error) {
	g := orig.Sweep() // private, compact working copy
	if g.NumAnds() == 0 {
		return nil, errors.New("core: circuit has no AND nodes to approximate")
	}
	e := &engine{opt: opt, hooks: hooks, nodesBefore: g.NumAnds()}
	e.bind(g)
	if opt.Metric == metric.WCE {
		// Certify against a frozen copy of the (swept) input — sweeping
		// preserves the function, so a proof against the copy is a proof
		// against the caller's circuit.
		e.ref = g.Clone()
		if CertifiesByEnumeration(g, opt) {
			e.enumCert = sim.Enumerates(g.NumPIs(), SimOptions(opt))
			if !e.enumCert {
				e.worst = sim.NewWorstCase(e.ref)
			}
		}
		e.lastGood = e.snapshot()
	}
	return e, nil
}

// bind makes g the working circuit and builds the state derived from it
// from scratch: the simulator, the metric state and the LAC generator.
// The first bind (the pristine input) also captures the exact output
// values every later metric state is measured against; a later bind (a
// rollback) keeps the generator's candidate budget, which DP-SA may have
// tuned, like M and N.
func (e *engine) bind(g *aig.Graph) {
	e.g = g
	e.s = sim.New(g, SimOptions(e.opt))
	if e.exact == nil {
		e.exact = make([]bitvec.Vec, g.NumPOs())
		for o := range e.exact {
			e.exact[o] = bitvec.NewWords(e.s.Words())
			e.s.POVal(o, e.exact[o])
		}
		e.poScratch = bitvec.NewWords(e.s.Words())
	}
	weights := e.opt.Weights
	if weights == nil && e.opt.Metric.Numeric() {
		weights = metric.UnsignedWeights(g.NumPOs())
	}
	e.st = metric.NewState(e.opt.Metric, e.exact, weights, e.s.Patterns())
	for o := range e.exact {
		e.s.POVal(o, e.poScratch)
		e.st.CommitPO(o, e.poScratch)
	}
	lo := e.opt.lacOptions()
	if e.gen != nil {
		lo.MaxPerNode = e.gen.MaxPerNode()
	}
	e.gen = lac.NewGenerator(g, e.s, lo)
}

// liveTargets returns all live AND nodes in topological order. The slice
// is engine-owned scratch, valid until the next call — every caller hands
// it straight to the evaluator and drops it.
func (e *engine) liveTargets() []int32 {
	out := e.targetsBuf[:0]
	for _, v := range e.g.Topo() {
		if e.g.IsAnd(v) {
			out = append(out, v)
		}
	}
	e.targetsBuf = out
	return out
}

// fire consults the run's fault plan (nil in every production run) at one
// injection opportunity; see internal/fault.
func (e *engine) fire(k fault.Kind) bool { return e.hooks.Fault.Fire(k) }

// held is an accepted LAC of a WCE run that no checkpoint has certified
// yet, with the OnIteration report that waits for the certificate.
type held struct {
	iter   int
	chosen lac.NodeBest
	bests  []lac.NodeBest
}

// report announces the accepted LAC chosen as iteration iter to the run's
// OnIteration hook, if any. A WCE run holds the report, with the LAC's
// pending-certification record, until a checkpoint certifies it, so an
// observer never sees a LAC that a certification replay undoes.
func (e *engine) report(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
	switch {
	case e.ref != nil:
		e.pending = append(e.pending, held{iter, chosen, bests})
	case e.hooks.OnIteration != nil:
		e.hooks.OnIteration(iter, chosen, bests)
	}
}

// apply commits a LAC: rewires the graph, incrementally resimulates, folds
// the PO changes into the metric state, repairs the cuts and the SASIMI
// index. Flows call it through accept; only the AccALS batch, whose
// reports wait for its validation, and the WCE replay call it directly.
// Every caller reports the LAC once it is kept.
func (e *engine) apply(l lac.LAC) {
	sp := e.cur.Child("apply")
	cs := e.g.ReplaceWithLit(l.Target, l.NewLit)
	// changed is simulator-owned scratch, valid only until the next
	// ResimulateFrom call — consumed below before anything resimulates.
	var changed []int32
	if !e.fire(fault.SkipResim) {
		rs := sp.Child("resim")
		changed = e.s.ResimulateFrom(cs.Rewired)
		rs.SetInt("changed_vars", int64(len(changed)))
		rs.SetInt("words", int64(e.s.Words()))
		rs.End()
	}
	if len(changed) > 0 && e.fire(fault.FlipSimBit) {
		e.s.Val(changed[0])[0] ^= 1
	}
	if !e.fire(fault.SkipMetricCommit) {
		for o := 0; o < e.g.NumPOs(); o++ {
			e.s.POVal(o, e.poScratch)
			e.st.CommitPO(o, e.poScratch)
		}
	}
	if e.cuts != nil && e.incCuts {
		cu := sp.Child("cuts.update")
		w0 := e.cuts.Work()
		if e.fire(fault.SkipCutWarmUpdate) {
			// Seeded warm-path bug: the incremental repair is skipped but
			// the set still claims to be in sync, so later analyses (and
			// the next round's warm start) trust stale cuts. Invalidate
			// below does not depend on the repair — it walks the fanin
			// closure of cs itself — so the corruption is isolated to the
			// cut structure.
			e.cuts.ForceSync()
		} else {
			cu.SetInt("nodes", int64(len(e.cuts.UpdateAfter(cs))))
			e.stats.CutUpdates++
		}
		dw := e.cuts.Work() - w0
		cu.SetInt("work", dw)
		cu.End()
		e.stats.CutWork += dw
		if e.cache != nil && !e.fire(fault.SkipCPMInvalidate) {
			e.cache.Invalidate(cs, changed)
		}
	}
	e.gen.Reindex()
	// Any applied LAC moves the global metric state every evaluation is
	// scored against: every memoized evaluation is stale now.
	e.memo.Invalidate()
	e.stats.Applied++
	sp.SetInt("target", int64(l.Target))
	sp.SetFloat("error", e.st.Error())
	sp.SetInt("ands", int64(e.g.NumAnds()))
	sp.End()
	e.prog.Update(e.stats.Applied, e.g.NumAnds(), e.st.Error(), e.opt.Threshold)
}

// reachedCap reports whether the safety iteration cap has been hit.
func (e *engine) reachedCap() bool {
	return e.opt.MaxIters > 0 && e.stats.Applied >= e.opt.MaxIters
}

// cancelled reports whether the run's context is done, recording the
// matching stop reason (deadline vs cancelled) on the first hit. Flows
// call it at iteration boundaries and after every analysis step, and must
// return best-so-far without further graph edits once it fires.
func (e *engine) cancelled() bool {
	if e.ctx == nil {
		return false
	}
	err := e.ctx.Err()
	if err == nil {
		return false
	}
	if e.stats.StopReason == "" {
		e.interrupt(err)
	}
	return true
}

// interrupt records the stop reason that ctx's error err names (deadline
// vs cancelled), overriding a budget or max-iters reason recorded before:
// it is also called when cancellation cuts a certification short, after
// which the run emits its last certified state, not what the flow
// finished with — a timing-dependent result that must not pass for a
// completed one.
func (e *engine) interrupt(err error) {
	if e.interrupted() {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		e.stats.StopReason = StopDeadline
	} else {
		e.stats.StopReason = StopCancelled
	}
	e.cancelAt = time.Now() // origin of the run span's cancel_latency_ns
}

// interrupted reports whether the run recorded a cancellation or deadline
// stop.
func (e *engine) interrupted() bool {
	return e.stats.StopReason == StopCancelled || e.stats.StopReason == StopDeadline
}

// stopped reports whether a flow must stop before starting another
// iteration — context cancelled/deadline expired, or the MaxIters cap
// reached — recording the stop reason. The natural "no LAC fits the
// budget" exit records StopBudget at its own site.
func (e *engine) stopped() bool {
	if e.cancelled() {
		return true
	}
	if e.reachedCap() {
		e.stats.StopReason = StopMaxIters
		return true
	}
	return false
}

// snapshot captures the full synthesis state for rollback (used by the
// baselines whose estimates can be wrong — AccALS and depth-limited VECBEE —
// and by the WCE certification checkpoints): the circuit, the applied
// count and the number of pending-certification records at capture time.
type snapshot struct {
	g       *aig.Graph
	applied int
	pending int
}

func (e *engine) snapshot() snapshot {
	return snapshot{g: e.g.Clone(), applied: e.stats.Applied, pending: len(e.pending)}
}

// restore rolls the engine back to a snapshot. It binds a private clone of
// the snapshot's circuit, so one snapshot can be restored more than once,
// rebuilding the derived state from scratch, and uncounts everything
// applied since the snapshot: Stats.Applied returns to its captured value
// and the pending-certification records of those LACs are dropped. It is
// the one rollback path of every flow, counted in Stats.Rollbacks.
func (e *engine) restore(sn snapshot) {
	sp := e.cur.Child("rollback")
	defer sp.End()
	e.pending = e.pending[:sn.pending]
	e.stats.Applied = sn.applied
	e.bind(sn.g.Clone())
	e.cuts = nil        // next comprehensive pass rebuilds the cuts
	e.cache = nil       // the cache is bound to the replaced graph/simulator
	e.memo.Invalidate() // evaluations reference the replaced state
	e.stats.Rollbacks++
}

// applicable reports whether l still applies to the current circuit after
// earlier LACs of the same batch or replay: its target and substitute are
// live, and the substitution does not create a cycle.
func (e *engine) applicable(l lac.LAC) bool {
	if !e.g.IsAnd(l.Target) || e.g.IsDead(l.NewLit.Var()) {
		return false
	}
	return l.IsConst() || !e.g.InTFO(l.Target, l.NewLit.Var())
}

// certifyAt certifies the current circuit at bound t and records the
// "cert" span, whose method attribute names the proof. It returns whether
// the proof succeeded and the bound it proves: t, or the exact worst case
// when an enumeration measured it. With enumCert the maximum over the
// run's enumerated patterns is the true worst case, so the check is a
// comparison; with worst it is a streamed enumeration. Otherwise it runs
// one SAT probe under Options.CertConflictLimit, counted in
// Stats.CertCalls: in the tightening session *sess if sess is non-nil
// (encoded by the first probe, inside its span), else on a fresh miter. A
// conflict-budget exhaustion (or any solver error) counts as a failed
// certification, keeping limited runs deterministic. Cancellation can cut
// a streamed check or a SAT probe short: that proves nothing, fails the
// certification and records the stop reason (interrupt), so callers tell
// it from a violation by interrupted. This is also the skip-wce-cert
// fault site: the seeded bug claims success without proving anything,
// and the sampled maximum as the bound.
func (e *engine) certifyAt(t uint64, sess **equiv.Session) (uint64, bool) {
	if e.fire(fault.SkipWCECert) {
		return uint64(e.st.Error()), true
	}
	sp := e.cur.Child("cert")
	defer sp.End()
	sp.SetInt("bound", int64(t))
	switch {
	case e.enumCert:
		sp.SetStr("method", "enum")
		return uint64(e.st.Error()), e.st.Error() <= float64(t)
	case e.worst != nil:
		sp.SetStr("method", "enum")
		m, err := e.worst.Max(e.ctx, e.g, t)
		if err != nil {
			e.interrupt(err)
			return t, false
		}
		return m, m <= t
	}
	sp.SetStr("method", "sat")
	e.stats.CertCalls++
	sp.SetInt("sat_calls", int64(e.stats.CertCalls))
	limit := e.opt.CertConflictLimit
	var ok bool
	var err error
	if sess == nil {
		ok, _, err = equiv.WCEAtMost(e.ctx, e.ref, e.g, t, limit)
	} else {
		if *sess == nil {
			if *sess, err = equiv.NewSession(e.ref, e.g); err != nil {
				return t, false
			}
		}
		ok, _, err = (*sess).AtMost(e.ctx, t, limit)
	}
	if err != nil && e.ctx.Err() != nil {
		e.interrupt(e.ctx.Err())
	}
	return t, err == nil && ok
}

// markCertified records the current state as proven at bound t, the bound
// certifyAt returned (so the exact worst case when an enumeration proved
// it): the held reports of the pending LACs go out, the pending records
// are cleared, and the state becomes the rollback anchor.
func (e *engine) markCertified(t uint64) {
	if e.hooks.OnIteration != nil {
		for _, h := range e.pending {
			e.hooks.OnIteration(h.iter, h.chosen, h.bests)
		}
	}
	e.pending = e.pending[:0]
	e.lastGood = e.snapshot()
	e.certWCE = t
}

// wceCheckpoint is the amortized certification step of the WCE-constrained
// flow. Flows call it after every accepted LAC; every CertEvery accepted
// LACs (or when forced, before emit) the running circuit is certified at
// the bound. On success the state becomes the new rollback anchor; on
// violation the engine rolls back to the last certified state and replays
// the pending LACs one by one, certifying each, keeping the longest
// certified prefix — and reports true, upon which the flow must stop
// (re-proposing the violating LAC would loop forever: the sampled estimate
// that admitted it cannot see the violating input), with StopBudget
// unless a reason is recorded already. A run that is interrupted — by a
// certification that cancellation cut short, or before the checkpoint —
// does no new certification work: the checkpoint reports true without
// replaying, and finalizeWCE rolls the uncertified tail back.
func (e *engine) wceCheckpoint(force bool) bool {
	if e.ref == nil || len(e.pending) == 0 {
		return false
	}
	if !force && len(e.pending) < e.opt.CertEvery {
		return false
	}
	if m, ok := e.certifyAt(e.opt.WCEBound, nil); ok {
		e.markCertified(m)
		return false
	}
	if e.interrupted() {
		return true
	}
	e.wceReplay()
	if e.stats.StopReason == "" {
		e.stats.StopReason = StopBudget
	}
	return true
}

// wceReplay is the violation path of wceCheckpoint: restore the last
// certified state, then re-apply the recorded LACs in order with a
// certification after each, stopping at (and restoring away) the first
// violator, or the first LAC whose certification cancellation cuts short
// (which leaves the run interrupted, not stopped by a violation). A
// re-applied LAC is reported under its new iteration number once
// certified; a skipped or undone one is never reported. Each restore
// counts in Stats.Rollbacks; the replay as a whole counts once in
// Stats.CertRollbacks.
func (e *engine) wceReplay() {
	e.stats.CertRollbacks++
	recs := append([]held(nil), e.pending...)
	e.restore(e.lastGood)
	for _, h := range recs {
		l := h.chosen.Best.LAC
		if !e.applicable(l) {
			continue
		}
		e.apply(l)
		e.report(e.stats.Applied, h.chosen, h.bests)
		if m, ok := e.certifyAt(e.opt.WCEBound, nil); ok {
			e.markCertified(m)
			continue
		}
		e.restore(e.lastGood)
		break
	}
}

// finalizeWCE closes out a WCE-constrained run before the final sweep, so
// that the emitted circuit always carries a proven bound. Interrupted runs
// do no new certification work; completed runs force a final checkpoint.
// Either way the uncertified tail, if any, is rolled back and the last
// certified state is emitted — so too when cancellation cuts the final
// checkpoint short, which interrupts the run. CertifiedWCE is then the
// tightest bound at hand. An enumeration (enumCert or worst) certified
// the emitted state with its exact worst case. Otherwise a completed run
// tightens the proven bound by binary search between the sampled maximum
// (a genuine lower bound on the true worst case) and it, every probe in
// one incremental equiv.Session on the final circuit — with an unlimited
// conflict budget the result is the exact worst-case error; with a
// limited one, inconclusive probes keep the current proven bound.
func (e *engine) finalizeWCE() {
	if e.ref == nil {
		return
	}
	if !e.interrupted() {
		e.wceCheckpoint(true)
	}
	if len(e.pending) > 0 {
		e.restore(e.lastGood)
	}
	e.stats.CertifiedWCE = e.certWCE
	if !e.interrupted() && !e.enumCert && e.worst == nil {
		e.tightenWCE()
	}
}

// tightenWCE is finalizeWCE's SAT tightening session. A probe that
// cancellation cuts short interrupts the run and ends the search at the
// tightest bound proven so far.
func (e *engine) tightenWCE() {
	lo, hi := uint64(0), e.certWCE
	if sm := e.st.Error(); sm > 0 && hi > 0 {
		lo = uint64(sm)
		if lo > hi {
			lo = hi
		}
	}
	var sess *equiv.Session
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, ok := e.certifyAt(mid, &sess); ok {
			hi = mid
		} else if e.interrupted() {
			break
		} else {
			lo = mid + 1
		}
	}
	e.stats.CertifiedWCE = hi
}

// warmStart reports whether the next comprehensive pass may reuse the
// incrementally-maintained analysis state instead of rebuilding cold: the
// dual-phase flow repairs the cuts after every apply (incCuts), the set
// exists and is in sync with the graph — the §III-B cut preservation
// condition held through every change since the last pass. A first round
// (no cuts yet), a rollback (cuts dropped), a cancelled build (set never
// marked synced), or a flow that does not repair cuts (conventional,
// AccALS) all fall back to the cold rebuild.
func (e *engine) warmStart() bool {
	return e.incCuts && e.cuts != nil && e.cuts.InSync()
}
