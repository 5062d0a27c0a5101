package equiv_test

import (
	"context"
	"testing"

	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// Every check is one counted SAT call with the verdict of the exact worst
// case: a repeated refutation is decided again, and a session's checks
// count like the certifier's own.
func TestCertifierCountsEveryCheck(t *testing.T) {
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
	if w < 2 {
		t.Fatalf("approximation too faithful for the test (WCE %d)", w)
	}

	cert := equiv.NewCertifier(orig)
	sess := cert.Session(approx)
	checks := []struct {
		thr  uint64
		sess bool
		want bool
	}{
		{w - 1, false, false},
		{w - 1, false, false},
		{w - 2, false, false},
		{w, false, true},
		{w - 1, true, false},
		{w, true, true},
	}
	for i, c := range checks {
		var ok bool
		if c.sess {
			ok, err = sess.CheckAt(c.thr)
		} else {
			ok, err = cert.CheckAt(approx, c.thr)
		}
		if err != nil || ok != c.want {
			t.Fatalf("check %d at %d (session %v) = %v, %v; want %v", i, c.thr, c.sess, ok, err, c.want)
		}
		if cert.Calls != i+1 {
			t.Fatalf("after check %d: %d SAT calls, want %d", i, cert.Calls, i+1)
		}
	}
}

func TestCertifierBudgetExhaustion(t *testing.T) {
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

	cert := equiv.NewCertifier(orig)
	cert.Limit = 1
	// Proving the bound holds at the exact WCE is an UNSAT instance that
	// needs conflict analysis; one conflict cannot finish it.
	if _, err := cert.CheckAt(approx, w); err != equiv.ErrBudget {
		t.Fatalf("starved certification returned %v, want ErrBudget", err)
	}
	// Lifting the limit on the same certifier must succeed.
	cert.Limit = 0
	ok, err := cert.CheckAt(approx, w)
	if err != nil || !ok {
		t.Fatalf("unlimited retry = %v, %v; want certified", ok, err)
	}
}
