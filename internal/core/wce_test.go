package core

import (
	"context"
	"testing"
	"time"

	"dpals/internal/aig"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

func wceOptions(flow Flow, bound uint64) Options {
	return Options{
		Flow: flow, Metric: metric.WCE, Threshold: float64(bound),
		WCEBound: bound, Patterns: 512, Threads: 1, MaxIters: 20,
	}
}

func TestWCERejectsBadOptions(t *testing.T) {
	g := gen.Adder(4)

	opt := wceOptions(FlowDP, 3)
	opt.Weights = metric.UnsignedWeights(g.NumPOs())
	if _, err := Run(context.Background(), g, opt, Hooks{}); err == nil {
		t.Error("explicit weights accepted on the WCE path")
	}

	wide := gen.Adder(63) // 64 POs
	if _, err := Run(context.Background(), wide, wceOptions(FlowDP, 3), Hooks{}); err == nil {
		t.Error("a 64-output circuit accepted on the WCE path")
	}

	med := Options{Flow: FlowDP, Metric: metric.MED, Threshold: 2, WCEBound: 3}
	if _, err := Run(context.Background(), gen.Adder(4), med, Hooks{}); err == nil {
		t.Error("WCEBound accepted for a non-WCE metric")
	}
}

// satCircuit returns a circuit beyond CertifiesByEnumeration: the 2^32
// inputs of a 16-bit adder are too many to enumerate, so its WCE runs
// certify by SAT, which finds adder miters easy. Sampled at satPatterns,
// every flow's runs there take the replay (a checkpoint fails, the engine
// rolls back and replays) and the final tightening session. The
// enumeration twins of the tests below are in enum_test.go.
func satCircuit() *aig.Graph { return gen.Adder(16) }

const satPatterns = 64

// Every flow under the WCE metric must emit a circuit whose worst case —
// proven by an independent SAT query, not the engine's own certifier — is
// within the requested bound, with a consistent certificate in Stats.
func TestWCEAllFlowsCertifiedWithinBound(t *testing.T) {
	g := satCircuit()
	const bound = 6
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		opt := wceOptions(flow, bound)
		opt.Patterns = satPatterns
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatalf("%v: %v", flow, err)
		}
		if res.Stats.CertifiedWCE > bound {
			t.Errorf("%v: certified WCE %d exceeds bound %d", flow, res.Stats.CertifiedWCE, bound)
		}
		if res.Stats.Applied > 0 && res.Stats.CertCalls == 0 {
			t.Errorf("%v: applied %d LACs with zero certification calls", flow, res.Stats.Applied)
		}
		if res.Stats.CertRollbacks == 0 {
			t.Errorf("%v: no checkpoint failed, so the replay went untested", flow)
		}
		ok, cex, err := equiv.WCEAtMost(context.Background(), g, res.Graph, res.Stats.CertifiedWCE, 0)
		if err != nil {
			t.Fatalf("%v: recheck: %v", flow, err)
		}
		if !ok {
			t.Errorf("%v: independent SAT query refutes the certificate %d (cex %v)",
				flow, res.Stats.CertifiedWCE, cex)
		}
	}
}

// CertEvery only moves the amortisation points, never the soundness: with
// per-LAC certification (CertEvery 1) and with the default batching the
// certificate must hold either way, and per-LAC certification can never
// certify less than it applied.
func TestWCECertEveryAmortisation(t *testing.T) {
	g := satCircuit()
	for _, every := range []int{1, 3, 8} {
		opt := wceOptions(FlowDP, 6)
		opt.Patterns = satPatterns
		opt.CertEvery = every
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatalf("CertEvery %d: %v", every, err)
		}
		ok, _, err := equiv.WCEAtMost(context.Background(), g, res.Graph, res.Stats.CertifiedWCE, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("CertEvery %d: unsound certificate %d", every, res.Stats.CertifiedWCE)
		}
		if every == 1 && res.Stats.Applied > 0 && res.Stats.CertCalls < res.Stats.Applied {
			t.Errorf("CertEvery 1: %d applied but only %d certification calls",
				res.Stats.Applied, res.Stats.CertCalls)
		}
	}
}

// Sixteen sampled patterns of an 8-input multiplier miss the worst cases,
// so checkpoints fail and every flow takes the replay path: restore the
// last certified state, re-apply the pending LACs with a proof each, and
// restore again at the first violator. The emitted circuit must still
// carry a sound certificate within the bound.
func TestWCEReplayKeepsCertificate(t *testing.T) {
	g := gen.MultU(4, 4)
	const bound = 8
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		opt := wceOptions(flow, bound)
		opt.Patterns = 16
		opt.CertEvery = 2
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatalf("%v: %v", flow, err)
		}
		st := res.Stats
		if st.CertRollbacks == 0 {
			t.Fatalf("%v: no checkpoint failed; change the circuit or pattern count", flow)
		}
		if st.Rollbacks < st.CertRollbacks {
			t.Errorf("%v: %d replays but only %d restores", flow, st.CertRollbacks, st.Rollbacks)
		}
		if st.CertifiedWCE > bound {
			t.Errorf("%v: certified WCE %d exceeds bound %d", flow, st.CertifiedWCE, bound)
		}
		ok, _, err := equiv.WCEAtMost(context.Background(), g, res.Graph, st.CertifiedWCE, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: independent SAT query refutes the certificate %d", flow, st.CertifiedWCE)
		}
	}
}

// restore uncounts what it rolls back: Stats.Applied returns to the
// snapshot's count and the pending-certification records of the undone
// LACs are dropped, so a later replay cannot re-apply them and their held
// reports never fire. A snapshot stays restorable after use.
func TestRestoreUncountsPending(t *testing.T) {
	g := gen.MultU(4, 4)
	e, err := newEngine(g, wceOptions(FlowConventional, 8).Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	applyConst := func() {
		t.Helper()
		for _, v := range e.liveTargets() {
			if l := (lac.LAC{Target: v, NewLit: aig.False}); e.applicable(l) {
				e.apply(l)
				e.report(e.stats.Applied, lac.NodeBest{Node: v, Best: lac.Eval{LAC: l}}, nil)
				return
			}
		}
		t.Fatal("no live AND node left")
	}
	check := func(applied int) {
		t.Helper()
		if e.stats.Applied != applied || len(e.pending) != applied {
			t.Fatalf("Applied %d, %d pending; want %d and %d", e.stats.Applied, len(e.pending), applied, applied)
		}
	}
	applyConst()
	sn := e.snapshot()
	ands := e.g.NumAnds()
	applyConst()
	applyConst()
	check(3)
	e.restore(sn)
	check(1)
	applyConst()
	e.restore(sn)
	check(1)
	if e.g.NumAnds() != ands {
		t.Fatalf("second restore of one snapshot: %d ANDs, want %d", e.g.NumAnds(), ands)
	}
	e.restore(e.lastGood)
	check(0)
	if e.stats.Rollbacks != 3 {
		t.Fatalf("Rollbacks = %d, want 3", e.stats.Rollbacks)
	}
}

// A streamed certification that cancellation cuts short proves nothing
// either way. It must not count as a violation, and the run must say it
// was interrupted: it then emits its last certified state, not what the
// flow finished with, and a result that depends on when the context ended
// must never pass for a completed (and cacheable) one — not even when the
// flow had already recorded budget or max-iters. Three cuts on a sampled
// MultU(4, 4), which certifies by sim.WorstCase: a replay whose second
// check starts after the OnIteration hook of its first certified LAC
// cancels the context, and final checkpoints of flows that stopped for
// budget and for max-iters, under a cancelled and an expired context. A
// SAT check is cut short the same way: beyond the rule, a final
// checkpoint under an ended context certifies nothing and replays
// nothing.
func TestCutShortCertificationInterruptsRun(t *testing.T) {
	// Each case ties the drivers of two or one of the circuit's outputs
	// to 0, one accepted LAC each, all pending. The least significant
	// output's driver (a0 b0 in the multiplier, the sum XOR in the adder)
	// costs at most 1 tied to 0, within the bound 1; the top output's
	// costs far more.
	type run struct {
		g        *aig.Graph
		patterns int
		streamed bool
	}
	mult := run{gen.MultU(4, 4), 16, true}
	setup := func(t *testing.T, r run, ctx context.Context, hooks Hooks, top bool) *engine {
		t.Helper()
		opt := wceOptions(FlowConventional, 1)
		opt.Patterns = r.patterns
		e, err := newEngine(r.g, opt.Resolved(), hooks)
		if err != nil {
			t.Fatal(err)
		}
		if (e.worst != nil) != r.streamed || e.enumCert {
			t.Fatalf("streamed certification %v, want %v", e.worst != nil, r.streamed)
		}
		e.ctx = ctx
		outs := []int{0}
		if top {
			outs = append(outs, e.g.NumPOs()-1)
		}
		for _, o := range outs {
			v := e.g.POs()[o].Var()
			l := lac.LAC{Target: v, NewLit: aig.False}
			if !e.applicable(l) {
				t.Fatalf("LAC on var %d not applicable", v)
			}
			e.apply(l)
			e.report(e.stats.Applied, lac.NodeBest{Node: v, Best: lac.Eval{LAC: l}}, nil)
		}
		return e
	}
	// finish closes the run as Run does and checks the outcome: the stop
	// reason, the applied LACs kept, and a certificate that an independent
	// SAT query confirms.
	finish := func(t *testing.T, r run, e *engine, want StopReason, applied int, cert uint64) {
		t.Helper()
		e.finalizeWCE()
		if e.stats.StopReason != want {
			t.Errorf("stop reason %q, want %q", e.stats.StopReason, want)
		}
		if e.stats.Applied != applied || e.stats.CertifiedWCE != cert {
			t.Errorf("applied %d, certified %d; want %d and %d", e.stats.Applied, e.stats.CertifiedWCE, applied, cert)
		}
		ok, _, err := equiv.WCEAtMost(context.Background(), r.g, e.g, e.stats.CertifiedWCE, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("independent SAT query refutes the certificate %d", e.stats.CertifiedWCE)
		}
	}

	t.Run("replay", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := setup(t, mult, ctx, Hooks{OnIteration: func(int, lac.NodeBest, []lac.NodeBest) { cancel() }}, true)
		if !e.wceCheckpoint(true) {
			t.Fatal("checkpoint passed; the replay went untested")
		}
		if e.stats.CertRollbacks != 1 {
			t.Fatalf("%d replays, want 1", e.stats.CertRollbacks)
		}
		if ctx.Err() == nil {
			t.Fatal("the replay certified no LAC, so the hook never cancelled")
		}
		finish(t, mult, e, StopCancelled, 1, 1)
	})

	for _, prior := range []StopReason{StopBudget, StopMaxIters} {
		t.Run("final after "+string(prior), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			e := setup(t, mult, ctx, Hooks{}, false)
			e.stats.StopReason = prior
			finish(t, mult, e, StopCancelled, 0, 0)
		})
	}
	t.Run("final after max-iters past deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		e := setup(t, mult, ctx, Hooks{}, false)
		e.stats.StopReason = StopMaxIters
		finish(t, mult, e, StopDeadline, 0, 0)
	})

	t.Run("SAT final after max-iters", func(t *testing.T) {
		sat := run{satCircuit(), satPatterns, false}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e := setup(t, sat, ctx, Hooks{}, true)
		e.stats.StopReason = StopMaxIters
		finish(t, sat, e, StopCancelled, 0, 0)
		if e.stats.CertRollbacks != 0 {
			t.Errorf("%d replays, want 0", e.stats.CertRollbacks)
		}
	})
}

// An uncapped WCE job on a circuit beyond CertifiesByEnumeration, so one
// that certifies by SAT, must honour a 200 ms deadline: the deadline
// interrupts the running SAT call, and the run returns promptly with
// StopDeadline and its last certified state, whose certificate an
// independent SAT query confirms. A 10×10 multiplier (20 inputs, too many
// ANDs to enumerate) certified after every LAC makes the first SAT call
// run for far longer than the deadline.
func TestUncappedSATHonoursDeadline(t *testing.T) {
	g := gen.MultU(10, 10)
	opt := Options{Flow: FlowDP, Metric: metric.WCE, WCEBound: 1 << 12, CertEvery: 1,
		Patterns: 256, Threads: 1, TimeLimit: 200 * time.Millisecond}
	if CertifiesByEnumeration(g.Sweep(), opt.Resolved()) {
		t.Fatal("the circuit certifies by enumeration; the test needs SAT")
	}
	start := time.Now()
	res, err := Run(context.Background(), g, opt, Hooks{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopReason != StopDeadline {
		t.Fatalf("stop reason %q, want %q", res.Stats.StopReason, StopDeadline)
	}
	if res.Stats.CertCalls == 0 {
		t.Fatal("no SAT call started before the deadline; the test proves nothing")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("run took %v under a 200ms deadline", elapsed)
	}
	ok, _, err := equiv.WCEAtMost(context.Background(), g, res.Graph, res.Stats.CertifiedWCE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("independent SAT query refutes the certificate %d", res.Stats.CertifiedWCE)
	}
	t.Logf("stopped after %v: %d SAT calls, %d LACs kept, certified WCE %d", elapsed, res.Stats.CertCalls, res.Stats.Applied, res.Stats.CertifiedWCE)
}
