package dpals

import (
	"math"
	"testing"
)

// Biased input distributions: the synthesised circuit must respect the
// bound under its own training distribution, and that figure must match
// an independent measurement under the same distribution.
func TestBiasedDistributionFlow(t *testing.T) {
	c := NewMultiplier(6, 6, false)
	// Skew: operand a mostly small (high bits rarely set).
	probs := []float64{0.5, 0.5, 0.3, 0.2, 0.1, 0.05, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	R := ReferenceError(c)
	res, err := Approximate(c, Options{
		Flow: DPSA, Metric: MED, Threshold: R,
		Patterns: 2048, InputProbabilities: probs,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureErrorBiased(c, res.Circuit, MED, nil, 2048, 1, probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-res.Error) > 1e-9*(1+got) {
		t.Fatalf("reported %v, measured %v under the training distribution", res.Error, got)
	}
	if res.Error > R {
		t.Fatalf("error %v exceeds bound", res.Error)
	}
	if res.Stats.Applied == 0 {
		t.Error("nothing applied")
	}
	// Under the skewed distribution, the synthesiser should cut more than
	// under uniform for the same bound more often than not — at minimum,
	// the uniform-world error of this circuit will typically exceed the
	// biased-world error. Just sanity-check both are measurable.
	uni, err := MeasureError(c, res.Circuit, MED, nil, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("biased-trained circuit: %d gates; MED biased %.2f vs uniform %.2f (R=%.2f)",
		res.Circuit.NumGates(), got, uni, R)
}

func TestBiasedProbabilityValidation(t *testing.T) {
	c := NewAdder(6)
	// NaN compares false with every bound, so a range check written as
	// p < 0 || p > 1 lets it through and it silently pins the input to 0.
	for _, p := range []float64{1.5, -0.25, math.NaN()} {
		if _, err := Approximate(c, Options{
			Flow: DP, Metric: ER, Threshold: 0.1,
			InputProbabilities: []float64{0.5, p},
		}); err == nil {
			t.Errorf("out-of-range probability %v accepted", p)
		}
	}
}

// MeasureError and MeasureErrorBiased measure on exactly the patterns of
// the run they check: seed 0 is DefaultSeed, as in the run, and nil or
// empty probabilities are the run's uniform patterns — sampled on the 8×8
// multiplier (2^16 inputs > 1024 patterns), enumerated on the 3×3 one.
func TestMeasureErrorMatchesSeedZeroRun(t *testing.T) {
	for _, c := range []*Circuit{NewMultiplier(8, 8, false), NewMultiplier(3, 3, false)} {
		res, err := Approximate(c, Options{Flow: DP, Metric: ER, Threshold: 0.05, Patterns: 1024})
		if err != nil {
			t.Fatal(err)
		}
		measured := map[string]func() (float64, error){
			"MeasureError": func() (float64, error) { return MeasureError(c, res.Circuit, ER, nil, 1024, 0) },
			"MeasureErrorBiased(nil)": func() (float64, error) {
				return MeasureErrorBiased(c, res.Circuit, ER, nil, 1024, 0, nil)
			},
			"MeasureErrorBiased(empty)": func() (float64, error) {
				return MeasureErrorBiased(c, res.Circuit, ER, nil, 1024, 0, []float64{})
			},
		}
		for name, measure := range measured {
			got, err := measure()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-res.Error) > 1e-9*(1+got) {
				t.Errorf("%d inputs: run reported %v, %s gives %v", c.NumInputs(), res.Error, name, got)
			}
		}
	}
}
