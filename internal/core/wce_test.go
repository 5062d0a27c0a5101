package core

import (
	"context"
	"testing"

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

// satPatterns samples the 2^7 inputs of MultU(4, 3) instead of
// enumerating them, so its WCE runs certify by SAT. The enumeration twins
// of the tests below are in enum_test.go.
const satPatterns = 64

// Every flow under the WCE metric must emit a circuit whose worst case —
// proven by an independent SAT query, not the engine's own certifier — is
// within the requested bound, with a consistent certificate in Stats.
func TestWCEAllFlowsCertifiedWithinBound(t *testing.T) {
	g := gen.MultU(4, 3)
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
		ok, cex, err := equiv.WCEAtMost(g, res.Graph, res.Stats.CertifiedWCE, 0)
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
	g := gen.MultU(4, 3)
	for _, every := range []int{1, 3, 8} {
		opt := wceOptions(FlowDP, 6)
		opt.Patterns = satPatterns
		opt.CertEvery = every
		res, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatalf("CertEvery %d: %v", every, err)
		}
		ok, _, err := equiv.WCEAtMost(g, res.Graph, res.Stats.CertifiedWCE, 0)
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
		ok, _, err := equiv.WCEAtMost(g, res.Graph, st.CertifiedWCE, 0)
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
