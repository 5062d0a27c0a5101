package oracle

import (
	"fmt"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/fault"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// testbeds returns small circuits diverse enough that every fault kind
// has at least one site where its corruption becomes observable. The
// multipliers have input spaces larger than the WCE specs' 64 patterns
// (2^6 fits them, 2^7 does not): a run that enumerates its inputs makes
// skip-wce-cert unobservable, so MultU(3, 4) is the bed that catches it.
func testbeds() []*aig.Graph {
	return []*aig.Graph{
		gen.Random(3, 8, 6, 60),
		gen.Random(11, 10, 8, 90),
		gen.Adder(4),
		gen.MultU(3, 3),
		gen.MultU(3, 4),
	}
}

// baseSpecs are the campaign configurations the fault scan tries, most
// fault-sensitive first: the dual-phase flows exercise every injection
// site (CPM cache invalidation and diff rows only exist there).
func baseSpecs() []RunSpec {
	return []RunSpec{
		{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 6, Patterns: 256, Seed: 1, Threads: 1, MaxIters: 30}},
		// SASIMI wire substitutions grow the substitute's fanout, so a
		// skipped incremental cut repair leaves cuts that miss real
		// propagation paths. Constant-replacement LACs only ever shrink
		// fanout; their stale cuts carry extra dead elements whose region
		// diffs are zero, making skip-cut-warm-update score-equivalent
		// there — this spec is what makes that kind observable.
		{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 6, Patterns: 256, Seed: 5, Threads: 1, MaxIters: 30,
			UseConstLACs: true, UseSASIMILACs: true}},
		{Options: core.Options{Flow: core.FlowDP, Metric: metric.ER, Threshold: 0.3, Patterns: 256, Seed: 2, Threads: 1, MaxIters: 30}},
		{Options: core.Options{Flow: core.FlowConventional, Metric: metric.MED, Threshold: 10, Patterns: 256, Seed: 3, Threads: 1, MaxIters: 30}},
		{Options: core.Options{Flow: core.FlowVECBEE, Metric: metric.ER, Threshold: 0.25, Patterns: 256, Seed: 4, Threads: 1, MaxIters: 20}},
	}
}

// wceFaultSpecs are the WCE-constrained configurations for the fault
// scan. The sample is deliberately thin (64 patterns): on these small
// circuits a dense sample nearly always contains the true worst-case
// input, and a budget that covers the input space enumerates it, which
// makes a skipped certification (skip-wce-cert) exactly score-equivalent
// — the sampled maximum already IS the true worst case. Only a sample
// that misses the worst input lets the wce-cert-unsound cross-check
// observe the missing proof. Bound depends on the bed's output count, so
// these are built per circuit.
func wceFaultSpecs(g *aig.Graph) []RunSpec {
	b := metric.ReferenceWCEBound(g.NumPOs())
	return []RunSpec{
		{Options: core.Options{Flow: core.FlowDP, Metric: metric.WCE, WCEBound: b, Threshold: float64(b), Patterns: 64, Seed: 2, Threads: 1, MaxIters: 30}},
		{Options: core.Options{Flow: core.FlowConventional, Metric: metric.WCE, WCEBound: b, Threshold: float64(b), Patterns: 64, Seed: 3, Threads: 1, MaxIters: 30}},
	}
}

// TestFaultDetectionAllKinds is the harness's self-test: every fault kind
// the engine can seed must be caught by at least one cross-check on at
// least one (circuit, configuration, site) combination. A kind no check
// can see means the oracle has a blind spot for that whole class of bug.
func TestFaultDetectionAllKinds(t *testing.T) {
	beds := testbeds()
	for _, kind := range fault.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for _, g := range beds {
				specs := baseSpecs()
				// skip-wce-cert only fires on the WCE certification path.
				if kind == fault.SkipWCECert {
					specs = wceFaultSpecs(g)
				} else {
					specs = append(specs, wceFaultSpecs(g)...)
				}
				for _, spec := range specs {
					det, nth := ScanFault(g, spec, kind, 25)
					if det.Detected {
						t.Logf("%s detected on %s/%s at site %d via %s", kind, g.Name, spec.Flow, nth, det.How)
						return
					}
				}
			}
			t.Fatalf("fault kind %q escaped every cross-check on every testbed", kind)
		})
	}
}

// TestCleanRunsPassAllChecks is the converse: faithful runs across every
// flow must produce zero violations, or the harness cries wolf.
func TestCleanRunsPassAllChecks(t *testing.T) {
	g := gen.Random(3, 8, 6, 60)
	for _, spec := range append(baseSpecs(), wceFaultSpecs(g)...) {
		res, plan, err := Execute(g, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Flow, err)
		}
		if plan != nil {
			t.Fatalf("%s: clean run built a fault plan", spec.Flow)
		}
		if vs := Verify(g, spec, res); len(vs) > 0 {
			t.Errorf("%s: clean run flagged: %v", spec.Flow, vs)
		}
	}
}

// TestExhaustiveModeExactCheck runs a flow on exhaustive patterns, where
// the reported error must equal the enumerated truth bit-for-bit (up to
// fold rounding) — the sharpest form of the oracle bound.
func TestExhaustiveModeExactCheck(t *testing.T) {
	g := gen.Random(5, 7, 5, 50)
	spec := RunSpec{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 3,
		Patterns: 1 << g.NumPIs(), Seed: 1, Threads: 1, MaxIters: 20}}
	res, _, err := Execute(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(g, spec, res); len(vs) > 0 {
		t.Errorf("exhaustive run flagged: %v", vs)
	}
}

// TestDeterminismAcrossIrrelevantKnobs checks the metamorphic property
// that the thread count must not change any result bit.
func TestDeterminismAcrossIrrelevantKnobs(t *testing.T) {
	g := gen.Random(7, 9, 7, 80)
	base := RunSpec{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 8,
		Patterns: 512, Seed: 6, Threads: 1, MaxIters: 25}}
	ref, _, err := Execute(g, base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		mut  func(*RunSpec)
	}{
		{"threads-4", func(s *RunSpec) { s.Threads = 4 }},
		{"threads-all", func(s *RunSpec) { s.Threads = 0 }},
	}
	for _, v := range variants {
		spec := base
		v.mut(&spec)
		res, _, err := Execute(g, spec)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if d := Diverges(ref, res); d != "" {
			t.Errorf("%s diverges from reference: %s", v.name, d)
		}
	}
}

// TestCancelledRunStillValid checks the best-so-far metamorphic property:
// a run cancelled mid-flight must still satisfy every invariant a
// completed run does (valid graph, truthful error, budget respected).
func TestCancelledRunStillValid(t *testing.T) {
	g := gen.Random(9, 9, 7, 80)
	for _, cancelAfter := range []int{1, 3} {
		spec := RunSpec{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 8,
			Patterns: 512, Seed: 6, Threads: 1, MaxIters: 40}, CancelAfter: cancelAfter}
		res, _, err := Execute(g, spec)
		if err != nil {
			t.Fatalf("cancel@%d: %v", cancelAfter, err)
		}
		if vs := Verify(g, spec, res); len(vs) > 0 {
			t.Errorf("cancel@%d: best-so-far result flagged: %v", cancelAfter, vs)
		}
	}
}

// TestBudgetMonotonicConventional checks the applied-LAC prefix property
// of the conventional flow across a threshold ladder.
func TestBudgetMonotonicConventional(t *testing.T) {
	g := gen.Random(3, 8, 6, 60)
	spec := RunSpec{Options: core.Options{Flow: core.FlowConventional, Metric: metric.MED,
		Patterns: 256, Seed: 1, Threads: 1, MaxIters: 40}}
	if vs := CheckBudgetMonotonic(g, spec, []float64{0.5, 2, 8, 32}); len(vs) > 0 {
		t.Errorf("budget monotonicity violated: %v", vs)
	}
	// Misuse guard: the property is not claimed for threshold-adaptive flows.
	bad := spec
	bad.Flow = core.FlowDPSA
	if vs := CheckBudgetMonotonic(g, bad, []float64{1, 2}); len(vs) != 1 || vs[0].Check != "monotonic-misuse" {
		t.Errorf("DP-SA monotonicity misuse not rejected: %v", vs)
	}
}

// TestVerifyCatchesHandMadeLies feeds Verify deliberately wrong results
// to pin down which check fires for which lie.
func TestVerifyCatchesHandMadeLies(t *testing.T) {
	g := gen.Random(3, 8, 6, 60)
	spec := RunSpec{Options: core.Options{Flow: core.FlowConventional, Metric: metric.MED, Threshold: 6,
		Patterns: 256, Seed: 1, Threads: 1, MaxIters: 20}}
	res, _, err := Execute(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Verify(g, spec, res); len(vs) > 0 {
		t.Fatalf("honest result flagged: %v", vs)
	}
	lied := *res
	lied.Error = res.Error + 0.5
	vs := Verify(g, spec, &lied)
	if len(vs) == 0 {
		t.Fatal("misreported error not flagged")
	}
	if vs[0].Check != "reported-vs-recomputed" {
		t.Errorf("misreported error flagged as %s, want reported-vs-recomputed", vs[0].Check)
	}
	// A result circuit that is not an approximation of orig at all.
	swapped := *res
	swapped.Graph = gen.Random(99, g.NumPIs(), g.NumPOs(), 30)
	if vs := Verify(g, spec, &swapped); len(vs) == 0 {
		t.Error("foreign result circuit not flagged")
	}
	if vs := Verify(g, spec, nil); len(vs) != 1 || vs[0].Check != "no-result" {
		t.Errorf("nil result: %v", vs)
	}
}

func ExampleDiverges() {
	g := gen.Random(3, 6, 4, 30)
	spec := RunSpec{Options: core.Options{Flow: core.FlowConventional, Metric: metric.ER, Threshold: 0.2,
		Patterns: 256, Seed: 1, Threads: 1, MaxIters: 10}}
	a, _, _ := Execute(g, spec)
	b, _, _ := Execute(g, spec)
	fmt.Println(Diverges(a, b))
	// Output:
}
