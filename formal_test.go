package dpals

import "testing"

// The full verification story: synthesise under an average-case (MED)
// budget, then formally certify the worst case by SAT.
func TestFormalCertificationPipeline(t *testing.T) {
	orig := NewMultiplier(5, 4, false)
	R := ReferenceError(orig)
	res, err := Approximate(orig, Options{
		Flow: DPSA, Metric: MED, Threshold: R, Patterns: 1 << orig.NumInputs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied == 0 {
		t.Skip("nothing applied at this budget")
	}
	// The approximate circuit must not be equivalent (LACs were applied
	// with nonzero error) …
	eq, cex, err := ProveEquivalent(orig, res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error > 0 && eq {
		t.Error("nonzero-error circuit proven equivalent")
	}
	if !eq && cex == nil {
		t.Error("missing counterexample")
	}
	// … and its exact worst-case error must be certifiable.
	wce, err := WorstCaseError(orig, res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := CertifyWorstCaseError(orig, res.Circuit, wce)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("certification failed at the computed WCE %d", wce)
	}
	if wce > 0 {
		ok, viol, err := CertifyWorstCaseError(orig, res.Circuit, wce-1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Error("certified below the exact WCE")
		}
		if viol == nil {
			t.Error("missing violation witness")
		}
	}
	// The worst case always dominates the mean (MED ≤ WCE).
	if float64(wce) < res.Error {
		t.Errorf("WCE %d below mean error %v", wce, res.Error)
	}
	t.Logf("sm5x4: MED %.2f (budget %.2f), exact WCE %d", res.Error, R, wce)
}

func TestProveEquivalentArchitecturesPublic(t *testing.T) {
	eq, _, err := ProveEquivalent(NewAdder(10), NewKoggeStoneAdder(10))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("adder architectures must be equivalent")
	}
	eq, _, err = ProveEquivalent(NewMultiplier(5, 5, false), NewWallaceMultiplier(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("multiplier architectures must be equivalent")
	}
}
