package equiv_test

import (
	"context"
	"errors"
	"testing"

	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// A conflict cap of 1 cannot prove the bound at the exact worst case, an
// UNSAT instance that needs conflict analysis: the one-shot query and a
// session both report ErrBudget, and both certify once the cap is lifted.
func TestBudgetExhaustion(t *testing.T) {
	orig := gen.MultU(4, 3)
	opt := core.Options{
		Flow: core.FlowDPSA, Metric: metric.MED, Threshold: metric.ReferenceError(orig.NumPOs()),
		Patterns: 1 << 7,
	}
	res, err := core.Run(context.Background(), orig, opt, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	approx := res.Graph
	w, err := equiv.WorstCaseError(orig, approx)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := equiv.WCEAtMost(context.Background(), orig, approx, w, 1); !errors.Is(err, equiv.ErrBudget) {
		t.Fatalf("starved one-shot certification returned %v, want ErrBudget", err)
	}
	if ok, _, err := equiv.WCEAtMost(context.Background(), orig, approx, w, 0); err != nil || !ok {
		t.Fatalf("unlimited one-shot certification = %v, %v; want certified", ok, err)
	}

	sess, err := equiv.NewSession(orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.AtMost(context.Background(), w, 1); !errors.Is(err, equiv.ErrBudget) {
		t.Fatalf("starved session certification returned %v, want ErrBudget", err)
	}
	// Lifting the cap on the same session must succeed.
	if ok, _, err := sess.AtMost(context.Background(), w, 0); err != nil || !ok {
		t.Fatalf("unlimited session retry = %v, %v; want certified", ok, err)
	}
}
