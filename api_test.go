package dpals_test

// Regression tests for the public-API correctness sweep of the alsd PR:
// weight-vector validation at the boundary, well-defined Seed-0 semantics,
// and the "c is not modified" contract under concurrent use of one
// Circuit — the synthesis server's steady state.

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpals"
)

// Pre-fix, SetWeights accepted a slice of any length and a mismatched
// vector silently mis-scored MED/MSE (or panicked inside metric), and it
// accepted non-finite weights.
func TestSetWeightsValidatesLength(t *testing.T) {
	c := dpals.NewAdder(4) // 8 inputs, 5 outputs
	if err := c.SetWeights([]float64{1, 2}); err == nil {
		t.Fatalf("SetWeights accepted 2 weights for %d outputs", c.NumOutputs())
	}
	if err := c.SetWeights(make([]float64, c.NumOutputs()+1)); err == nil {
		t.Fatalf("SetWeights accepted %d weights for %d outputs", c.NumOutputs()+1, c.NumOutputs())
	}
	// A NaN weight scores every LAC NaN, which compares false against the
	// budget: DP-SA used to apply LACs until the circuit was empty and
	// report error NaN. Infinite weights are rejected with it.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := c.SetWeights([]float64{1, 2, bad, 8, 16}); err == nil {
			t.Errorf("SetWeights accepted weight %v", bad)
		}
	}
	w := []float64{1, 2, 4, 8, 16}
	if err := c.SetWeights(w); err != nil {
		t.Fatalf("SetWeights rejected a matching vector: %v", err)
	}
	// The slice is copied: caller-side mutation must not leak in.
	w[0] = 1e9
	if got := c.Weights()[0]; got != 1 {
		t.Fatalf("SetWeights aliased the caller's slice: weight[0] = %v", got)
	}
	if err := c.SetWeights(nil); err != nil || c.Weights() != nil {
		t.Fatalf("SetWeights(nil) = %v, weights %v; want reset to nil", err, c.Weights())
	}
}

func TestApproximateRejectsMismatchedWeights(t *testing.T) {
	c := dpals.NewAdder(4)
	_, err := dpals.Approximate(c, dpals.Options{
		Metric:    dpals.MED,
		Threshold: 1,
		Patterns:  256,
		Weights:   []float64{1, 2, 4}, // 5 outputs
	})
	if err == nil {
		t.Fatal("Approximate accepted a 3-entry weight vector for a 5-output circuit")
	}
	if !strings.Contains(err.Error(), "weights") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// A NaN budget compares false with every error, so an unchecked NaN let
// the run strip the circuit to nothing and report StopBudget. Every
// non-finite threshold must be rejected up front.
func TestApproximateRejectsNonFiniteThreshold(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, false)
	for _, thr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := dpals.Approximate(c, dpals.Options{Flow: dpals.DP, Metric: dpals.MED, Threshold: thr, Patterns: 256})
		if err == nil {
			t.Errorf("threshold %v accepted: %d gates, error %v, stop %q",
				thr, res.Circuit.NumGates(), res.Error, res.Stats.StopReason)
		}
	}
}

// Pre-fix, ApproximateContext mapped "Seed != 0" to the internal default,
// so an explicit Seed: 0 silently aliased to seed 1 with nothing a caller
// (or a result cache keyed on the seed) could observe. The fix makes the
// alias part of the contract: Seed 0 IS DefaultSeed, resolved once at the
// boundary and visible through Options.Resolved.
func TestSeedZeroResolvesToDefaultSeed(t *testing.T) {
	if got := (dpals.Options{}).Resolved().Seed; got != dpals.DefaultSeed {
		t.Fatalf("zero Options resolve to seed %d, want DefaultSeed (%d)", got, dpals.DefaultSeed)
	}
	if got := (dpals.Options{Seed: 7}).Resolved().Seed; got != 7 {
		t.Fatalf("explicit seed 7 resolved to %d", got)
	}

	run := func(seed int64) []byte {
		t.Helper()
		c := dpals.NewMultiplier(3, 3, false)
		res, err := dpals.Approximate(c, dpals.Options{
			Flow: dpals.DP, Metric: dpals.ER, Threshold: 0.05,
			Patterns: 512, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Circuit.WriteAIGER(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	zero, def := run(dpals.UseDefaultSeed), run(dpals.DefaultSeed)
	if !bytes.Equal(zero, def) {
		t.Fatal("Seed 0 is documented as an alias for DefaultSeed but produced a different circuit")
	}
}

// Resolving must be idempotent and must never merge distinct explicit
// seeds — the property the server's cache key construction leans on.
func TestResolvedIdempotentAndSeedPreserving(t *testing.T) {
	o := dpals.Options{Seed: 3, Patterns: 100, Threads: 2, M: -1, MaxIters: -5}
	r := o.Resolved()
	if rr := r.Resolved(); !reflect.DeepEqual(r, rr) {
		t.Fatalf("Resolved not idempotent: %+v vs %+v", r, rr)
	}
	if r.Seed != 3 || r.Patterns != 100 || r.M != 0 || r.MaxIters != 0 {
		t.Fatalf("Resolved mangled explicit values: %+v", r)
	}
	a := dpals.Options{Seed: 2}.Resolved()
	b := dpals.Options{Seed: 3}.Resolved()
	if a.Seed == b.Seed {
		t.Fatal("two distinct explicit seeds resolved to the same seed")
	}
}

// The "c is not modified" contract of Approximate must hold under
// concurrency: N goroutines sharing one *Circuit is the server's steady
// state. Pre-fix, every call swept and technology-mapped the SHARED
// graph, racing on its lazily cached traversal state (topo order, levels,
// mark scratch) — under -race on a multi-core machine this test fails on
// that code (see TestConcurrentReadersDuringApproximate for the variant
// that fails even on one core). It also pins that concurrent runs return
// bit-identical circuits.
func TestConcurrentApproximateSharedCircuit(t *testing.T) {
	shared := dpals.NewMultiplier(4, 4, false)
	opt := dpals.Options{
		Flow: dpals.DPSA, Metric: dpals.ER, Threshold: 0.02,
		Patterns: 1024, Seed: 5, Threads: 1,
	}

	const workers = 8
	results := make([][]byte, workers)
	errs := make([]error, workers)
	start := make(chan struct{}) // barrier: all workers hit the cold graph at once
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := dpals.Approximate(shared, opt)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := res.Circuit.WriteAIGER(&buf); err != nil {
				errs[i] = err
				return
			}
			results[i] = buf.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("concurrent runs with identical options diverged (worker 0 vs %d)", i)
		}
	}

	// The shared circuit itself must be untouched: a fresh identical
	// circuit still writes the same bytes.
	var before, after bytes.Buffer
	if err := dpals.NewMultiplier(4, 4, false).WriteAIGER(&before); err != nil {
		t.Fatal(err)
	}
	if err := shared.WriteAIGER(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("shared input circuit was modified by concurrent Approximate calls")
	}
}

// Readers hammering a shared Circuit while a synthesis runs against it —
// a server answering metadata queries for a circuit that is also being
// approximated. This is the seed-failing shape of the shared-graph race:
// on the pre-fix code the cold traversal caches (Topo/Levels/mark) are
// written by Depth/Area/WriteAIGER/Approximate with no synchronisation,
// and -race reports it reliably even on a single-core machine, where the
// all-Approximate test above can be serialised into accidental
// happens-before chains by the engine's internal locks.
func TestConcurrentReadersDuringApproximate(t *testing.T) {
	shared := dpals.NewMultiplier(4, 4, false)
	opt := dpals.Options{
		Flow: dpals.DP, Metric: dpals.ER, Threshold: 0.02,
		Patterns: 1024, Seed: 5, Threads: 1,
	}

	const readers = 8
	errs := make([]error, readers+1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		_, errs[readers] = dpals.Approximate(shared, opt)
	}()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_ = shared.Depth()
			_ = shared.Area()
			var buf bytes.Buffer
			errs[i] = shared.WriteAIGER(&buf)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

// ReadCircuit picks the parser from the header, so every format the
// library writes reads back without a file name to go by.
func TestReadCircuitSniffsFormat(t *testing.T) {
	c := dpals.NewAdder(3)
	for _, tc := range []struct {
		name  string
		write func(*dpals.Circuit, *bytes.Buffer) error
	}{
		{"blif", func(c *dpals.Circuit, b *bytes.Buffer) error { return c.WriteBLIF(b) }},
		{"aag", func(c *dpals.Circuit, b *bytes.Buffer) error { return c.WriteAIGER(b) }},
		{"aig", func(c *dpals.Circuit, b *bytes.Buffer) error { return c.WriteAIGERBinary(b) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(c, &buf); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		back, err := dpals.ReadCircuit(&buf)
		if err != nil {
			t.Fatalf("%s: ReadCircuit: %v", tc.name, err)
		}
		if eq, _, err := dpals.ProveEquivalent(c, back); err != nil || !eq {
			t.Fatalf("%s: read-back circuit not equivalent (err %v)", tc.name, err)
		}
	}
}

// WCE is defined over the unsigned LSB-first reading. A signed multiplier
// recommends signed weights, which MeasureError used to apply to WCE with
// nil weights and so disagreed with the certified bound of the same run.
func TestMeasureWCEUsesUnsignedReading(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, true)
	res, err := dpals.Approximate(c, dpals.Options{
		Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 300, Patterns: 1 << c.NumInputs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dpals.MeasureErrorExact(c, res.Circuit, dpals.WCE, nil)
	if err != nil {
		t.Fatal(err)
	}
	wce, err := dpals.WorstCaseError(c, res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if exact != float64(wce) || res.Stats.CertifiedWCE != wce || res.Error != exact {
		t.Fatalf("MeasureErrorExact %v, WorstCaseError %d, CertifiedWCE %d, Result.Error %v: want all equal",
			exact, wce, res.Stats.CertifiedWCE, res.Error)
	}
	if _, err := dpals.MeasureError(c, res.Circuit, dpals.WCE, c.Weights(), 256, 1); err == nil {
		t.Fatal("MeasureError accepted explicit weights for WCE")
	}
}
