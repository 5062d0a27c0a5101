package repro

import (
	"io"
	"testing"

	"dpals/internal/gen"
)

// The §III-B and §III-C orderings are asserted on deterministic work, not
// wall time: the incremental repair and the partial build must do less of
// it than their from-scratch counterparts on every host.
func TestAblationCutUpdateFasterThanFresh(t *testing.T) {
	g := gen.MultU(10, 10)
	inc, fresh, avgSv := AblationCutUpdate(g, 20, 1)
	t.Logf("incremental %d work (%v) vs fresh %d work (%v), avg |S_v| = %.0f of %d nodes",
		inc.Work, inc.Time, fresh.Work, fresh.Time, avgSv, g.NumAnds())
	if inc.Work <= 0 || inc.Work >= fresh.Work {
		t.Errorf("incremental cut update work %d not below fresh recomputation work %d", inc.Work, fresh.Work)
	}
	if avgSv <= 0 || avgSv >= float64(g.NumAnds()) {
		t.Errorf("avg |S_v| = %v out of range", avgSv)
	}
}

func TestAblationPartialCPMFasterThanFull(t *testing.T) {
	g := gen.MultU(10, 10)
	partial, full, closure := AblationPartialCPM(g, 60, 2048, 1)
	t.Logf("partial (M=60, |N(S)|=%d) %d work (%v) vs full %d work (%v)",
		closure, partial.Work, partial.Time, full.Work, full.Time)
	if partial.Work <= 0 || partial.Work >= full.Work {
		t.Errorf("partial CPM work %d not below full CPM work %d", partial.Work, full.Work)
	}
	if closure < 60 {
		t.Errorf("closure %d smaller than the target set", closure)
	}
}

func TestAblationMSweepRuns(t *testing.T) {
	b := gen.SmallSuite(true)[3] // sm9x8
	rows := AblationMSweep(b, []int{15, 60}, Config{Out: io.Discard, Patterns: 512, CapIters: 40})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Applied == 0 || r.ADP <= 0 || r.ADP > 1.01 {
			t.Errorf("M=%d: applied=%d ADP=%v", r.M, r.Applied, r.ADP)
		}
	}
}

func TestAblationPatternsSweepRuns(t *testing.T) {
	b := gen.SmallSuite(true)[0] // c880
	rows := AblationPatternsSweep(b, []int{256, 1024}, Config{Out: io.Discard, CapIters: 40})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TrainErr > r.Threshold {
			t.Errorf("patterns=%d: training error %v exceeds budget %v", r.Patterns, r.TrainErr, r.Threshold)
		}
		if r.ValidErr <= 0 {
			t.Errorf("patterns=%d: validation error %v", r.Patterns, r.ValidErr)
		}
	}
}
