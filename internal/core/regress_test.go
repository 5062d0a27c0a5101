package core

import (
	"context"
	"testing"

	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// A hand-built Options with zero self-adaption parameters must behave
// exactly like DefaultOptions: the zero values are normalized to the paper
// defaults inside Run (like Patterns), not silently degenerate. Without
// normalization, Et=0 stops phase 2 after the first error increase and
// RInc=0 only ever grows M by +1 — a different (and much weaker) flow.
func TestZeroValueDPSAMatchesDefaults(t *testing.T) {
	g := gen.MultU(7, 7)
	R := metric.ReferenceError(g.NumPOs())
	thr := R * R

	def := DefaultOptions(FlowDPSA, metric.MSE, thr)
	def.Patterns = 1024
	def.Seed = 11

	zero := Options{
		Flow:      FlowDPSA,
		Metric:    metric.MSE,
		Threshold: thr,
		Patterns:  1024,
		Seed:      11,
		Threads:   def.Threads,
		LACs:      lac.Options{Constants: true},
	}

	rd, err := Run(context.Background(), g, def)
	if err != nil {
		t.Fatal(err)
	}
	rz, err := Run(context.Background(), g, zero)
	if err != nil {
		t.Fatal(err)
	}
	// The phase partition is the sharp signal: un-normalized Et=0 stops
	// phase 2 on the first error increase, trading cheap phase-2 iterations
	// for full comprehensive analyses (on the seed: 30+36 instead of 9+57).
	if rz.Error != rd.Error || rz.Stats.Applied != rd.Stats.Applied ||
		rz.Stats.Phase1 != rd.Stats.Phase1 || rz.Stats.Phase2 != rd.Stats.Phase2 ||
		rz.Graph.NumAnds() != rd.Graph.NumAnds() {
		t.Errorf("zero-value DP-SA degenerates: zero {err=%v applied=%d phases=%d+%d ands=%d}, defaults {err=%v applied=%d phases=%d+%d ands=%d}",
			rz.Error, rz.Stats.Applied, rz.Stats.Phase1, rz.Stats.Phase2, rz.Graph.NumAnds(),
			rd.Error, rd.Stats.Applied, rd.Stats.Phase1, rd.Stats.Phase2, rd.Graph.NumAnds())
	}
	// Self-adaption profiles the steps with the deterministic StepWork
	// estimate, so even the tuned M trajectory must match exactly.
	if len(rz.Stats.MTrace) != len(rd.Stats.MTrace) {
		t.Errorf("M traces diverge: zero %v, defaults %v", rz.Stats.MTrace, rd.Stats.MTrace)
	} else {
		for i := range rz.Stats.MTrace {
			if rz.Stats.MTrace[i] != rd.Stats.MTrace[i] {
				t.Errorf("M traces diverge: zero %v, defaults %v", rz.Stats.MTrace, rd.Stats.MTrace)
				break
			}
		}
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
	opt := DefaultOptions(FlowAccALS, metric.MSE, 4*R*R)
	opt.Patterns = 1024
	opt.Seed = 11
	// A vanishing estimate-deviation tolerance forces every multi-LAC batch
	// to roll back to the single-LAC fallback.
	opt.AccTol = 1e-15
	opt.MaxIters = 30

	var iters []int
	opt.OnIteration = func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
		iters = append(iters, iter)
	}
	res, err := Run(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rollbacks == 0 {
		t.Fatal("test did not force a rollback; tighten AccTol or loosen the threshold")
	}
	if len(iters) != res.Stats.Applied {
		t.Errorf("callback fired %d times for %d applied LACs: %v", len(iters), res.Stats.Applied, iters)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Errorf("iteration numbers not gap-free and strictly increasing: %v", iters)
			break
		}
	}
}
