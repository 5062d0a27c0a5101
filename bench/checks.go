package main

import (
	"fmt"
	"math"

	"dpals"
	"dpals/internal/metric"
	"dpals/internal/oracle"
	"dpals/internal/sim"
)

// The output checks. Each one re-derives a figure through the
// verification oracle (internal/oracle) rather than trusting the run, and
// each failure counts against ok_frac.

// checkSampled recomputes the sampled error of approx on exactly the
// patterns the run trained on. It must equal the reported error and stay
// within the budget.
func checkSampled(orig, approx *dpals.Circuit, opt dpals.Options, reported float64) error {
	var w metric.Weights
	budget := opt.Threshold
	if opt.Metric == dpals.WCE {
		budget = float64(opt.WCEBound)
	} else {
		w = orig.Weights()
	}
	got, err := oracle.SampledError(orig.Graph(), approx.Graph(), metric.Kind(opt.Metric), w,
		sim.Options{Patterns: opt.Patterns, Seed: opt.Seed, Threads: 1})
	if err != nil {
		return err
	}
	if math.Abs(got-reported) > tol(got, reported) {
		return fmt.Errorf("reported error %v, oracle recomputes %v", reported, got)
	}
	if got > budget+tol(got, budget) {
		return fmt.Errorf("sampled error %v exceeds the budget %v", got, budget)
	}
	return nil
}

// checkWCE enumerates every input of the circuit pair: the true worst-case
// error must not exceed the certified bound, which must not exceed the
// requested one.
func checkWCE(orig, approx *dpals.Circuit, certified, bound uint64) error {
	ex, err := oracle.Exact(orig.Graph(), approx.Graph(), nil)
	if err != nil {
		return err
	}
	if !ex.WCEOK {
		return fmt.Errorf("exhaustive WCE unavailable for %d outputs", orig.NumOutputs())
	}
	if ex.WCE > certified {
		return fmt.Errorf("true worst-case error %d exceeds the certified bound %d", ex.WCE, certified)
	}
	if certified > bound {
		return fmt.Errorf("certified bound %d exceeds the requested bound %d", certified, bound)
	}
	return nil
}

// tol is the oracle campaign's tolerance for two renderings of one
// floating-point figure.
func tol(a, b float64) float64 {
	return 1e-9 + 1e-6*math.Max(math.Abs(a), math.Abs(b))
}
