package dpals

import (
	"math"
	"testing"

	"dpals/internal/core"
)

// A budget of 2^inputs patterns enumerates the input space, so the
// reported error is exact — validate against the exhaustive measurement.
func TestExhaustiveModeExactness(t *testing.T) {
	c := NewMultiplier(5, 5, false)
	R := ReferenceError(c)
	res, err := Approximate(c, Options{
		Flow: DPSA, Metric: MED, Threshold: R,
		Patterns:      1 << c.NumInputs(),
		UseConstLACs:  true,
		UseSASIMILACs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MeasureErrorExact(c, res.Circuit, MED, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-res.Error) > 1e-9*(1+exact) {
		t.Fatalf("reported %v but exact %v", res.Error, exact)
	}
	if exact > R {
		t.Fatalf("exact error %v exceeds budget %v", exact, R)
	}
	if res.Stats.Applied == 0 {
		t.Error("nothing applied in exhaustive mode")
	}
}

// The pattern budget is capped at core.MaxPatterns (2^24), so no run or
// measurement enumerates more than 24 inputs. The budget checks use a
// narrow circuit, which would enumerate cheaply if the cap were missing.
func TestExhaustiveRejectsWideCircuits(t *testing.T) {
	narrow := NewAdder(4)
	if _, err := Approximate(narrow, Options{Flow: DP, Metric: ER, Threshold: 0.01, Patterns: core.MaxPatterns + 1}); err == nil {
		t.Error("a budget above the cap was accepted")
	}
	if _, err := MeasureError(narrow, narrow, ER, nil, core.MaxPatterns+1, 1); err == nil {
		t.Error("measurement accepted a budget above the cap")
	}
	for _, w := range []*Circuit{NewAdder(13), NewAdder(16)} { // 26 and 32 inputs
		if _, err := MeasureErrorExact(w, w, ER, nil); err == nil {
			t.Errorf("exact measurement accepted %d inputs", w.NumInputs())
		}
	}
}

func TestMHDFlowPublic(t *testing.T) {
	c := NewMultiplier(6, 6, false)
	res, err := Approximate(c, Options{
		Flow: DPSA, Metric: MHD, Threshold: 0.5, Patterns: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error > 0.5 {
		t.Fatalf("MHD %v exceeds budget", res.Error)
	}
	real, err := MeasureError(c, res.Circuit, MHD, nil, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real-res.Error) > 1e-9 {
		t.Fatalf("MHD reported %v, measured %v", res.Error, real)
	}
	if res.Stats.Applied == 0 {
		t.Error("MHD flow applied nothing")
	}
}
