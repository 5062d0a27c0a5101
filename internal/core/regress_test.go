package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/aiger"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// Run resolves its options itself, so a run with every knob left at its
// zero (or negative "default") value must be bit-identical to a run with
// the options Resolved fills in: same circuit, same error, same Stats —
// the DP-SA M trajectory included, since self-adaption profiles the steps
// with deterministic work estimates.
func TestZeroValueDPSAMatchesDefaults(t *testing.T) {
	g := gen.MultU(7, 7)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 1024, M: -1}

	rz, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(context.Background(), g, opt.Resolved(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Stats.MTrace) == 0 {
		t.Fatal("DP-SA recorded no self-adaption trace")
	}
	if rz.Error != rd.Error || !reflect.DeepEqual(normalizeStats(rz.Stats), normalizeStats(rd.Stats)) {
		t.Errorf("Run(opt) diverges from Run(opt.Resolved()):\n opt:      err=%v %+v\n resolved: err=%v %+v",
			rz.Error, rz.Stats, rd.Error, rd.Stats)
	}
	var bz, bd bytes.Buffer
	if err := aiger.Write(&bz, rz.Graph); err != nil {
		t.Fatal(err)
	}
	if err := aiger.Write(&bd, rd.Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bz.Bytes(), bd.Bytes()) {
		t.Error("Run(opt) and Run(opt.Resolved()) emit different circuits")
	}
}

// OnIteration must observe exactly the LACs that survive in the result:
// when an AccALS batch is rolled back, the undone applications must be
// invisible to the callback, and the SEALS fallback must not re-report an
// already-used iteration number. The sequence of reported iteration
// numbers has to be 1, 2, ..., Stats.Applied with no gaps or repeats.
func TestAccALSRollbackIterationNumbering(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	checkIterationNumbering(t, g, Options{
		Flow: FlowAccALS, Metric: metric.MSE, Threshold: 4 * R * R,
		Patterns: 1024, Seed: 11, MaxIters: 30,
	}, true)
}

// Depth-limited VECBEE validates every apply against the sampled error
// and ends in a rollback when the estimate admitted a violator; the
// rolled-back LAC must not stay counted in Stats.Applied.
func TestVECBEERollbackIterationNumbering(t *testing.T) {
	g := gen.MultS(9, 8)
	R := metric.ReferenceError(g.NumPOs())
	checkIterationNumbering(t, g, Options{
		Flow: FlowVECBEE, Metric: metric.MSE, Threshold: R * R,
		Patterns: 1024, DepthLimit: 2,
	}, true)
}

// The single-phase and dual-phase flows accept every LAC through the same
// step, so each must number its OnIteration calls 1, 2, ..., Stats.Applied,
// with and without WCE certification. The WCE runs use the replay setup of
// TestWCEReplayKeepsCertificate: sixteen patterns miss the worst cases, so
// a checkpoint fails and the replay restores away LACs whose reports were
// held for the certificate.
func TestIterationNumbering(t *testing.T) {
	g := gen.MultS(9, 8)
	R := metric.ReferenceError(g.NumPOs())
	for _, flow := range []Flow{FlowConventional, FlowDP, FlowDPSA} {
		t.Run(flow.String(), func(t *testing.T) {
			checkIterationNumbering(t, g, Options{
				Flow: flow, Metric: metric.MSE, Threshold: R * R,
				Patterns: 1024, Seed: 3, MaxIters: 40,
			}, false)
		})
	}
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		t.Run("wce/"+flow.String(), func(t *testing.T) {
			opt := wceOptions(flow, 8)
			opt.Patterns = 16
			opt.CertEvery = 2
			checkIterationNumbering(t, gen.MultU(4, 4), opt, true)
		})
	}
}

// checkIterationNumbering runs opt on g, with wantRollback requires at
// least one rollback, and checks that OnIteration fired once per applied
// LAC with the iteration numbers 1, 2, ..., Stats.Applied.
func checkIterationNumbering(t *testing.T, g *aig.Graph, opt Options, wantRollback bool) {
	t.Helper()
	var iters []int
	onIter := func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
		iters = append(iters, iter)
	}
	res, err := Run(context.Background(), g, opt, Hooks{OnIteration: onIter})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if wantRollback && st.Rollbacks == 0 {
		t.Fatal("test did not force a rollback; change the circuit, seed or threshold")
	}
	if st.Applied == 0 {
		t.Fatal("no LAC applied; the numbering check is vacuous")
	}
	if n := len(iters); n != st.Applied {
		t.Errorf("callback fired %d times for %d applied LACs (%d certification replays): %v",
			n, st.Applied, st.CertRollbacks, iters)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Errorf("iteration numbers not gap-free and strictly increasing: %v", iters)
			break
		}
	}
}
