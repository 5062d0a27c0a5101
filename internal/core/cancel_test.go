package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// bigOpts is the DPSA configuration used by the cancellation tests on the
// 4730-AND vector multiplier — large enough that a run has many analysis
// waves to interrupt, small enough for CI.
func bigOpts(numPOs int) Options {
	R := metric.ReferenceError(numPOs)
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 1024, Seed: 7}
	return opt
}

// Cancelling mid-synthesis must return promptly with the valid best-so-far
// circuit: swept, within budget, its reported error matching an
// independent measurement, and StopReason = cancelled.
func TestCancelMidSynthesisReturnsBestSoFar(t *testing.T) {
	g := gen.VecMul(4, 10)
	if n := g.NumAnds(); n < 4000 {
		t.Fatalf("benchmark shrank: %d ANDs", n)
	}
	opt := bigOpts(g.NumPOs())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	start := time.Now()
	var firstIter time.Duration
	onIter := func(iter int, _ lac.NodeBest, _ []lac.NodeBest) {
		if iter == 1 {
			firstIter = time.Since(start)
		}
		if iter == 3 {
			cancelledAt = time.Now()
			cancel()
		}
	}
	res, err := Run(ctx, g, opt, Hooks{OnIteration: onIter})
	latency := time.Since(cancelledAt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cancelledAt.IsZero() {
		t.Fatal("run finished before reaching iteration 3; circuit too easy for the test")
	}
	// The run must stop within about one analysis wave. One full
	// comprehensive pass (the time to the first applied LAC) is a lenient
	// upper bound for that — without cooperative cancellation the run
	// would continue for its full remaining duration, many passes.
	bound := firstIter
	if bound < 200*time.Millisecond {
		bound = 200 * time.Millisecond
	}
	if latency > bound {
		t.Errorf("cancel-to-return latency %v exceeds one comprehensive pass (%v)", latency, firstIter)
	}
	if res.Stats.StopReason != StopCancelled {
		t.Errorf("StopReason = %q, want %q", res.Stats.StopReason, StopCancelled)
	}
	if res.Stats.Applied < 3 {
		t.Errorf("best-so-far lost progress: %d LACs applied", res.Stats.Applied)
	}
	if err := res.Graph.Check(); err != nil {
		t.Errorf("best-so-far graph invalid: %v", err)
	}
	if res.Graph.NumAnds() >= g.Sweep().NumAnds() {
		t.Errorf("no area reduction in best-so-far: %d vs %d ANDs", res.Graph.NumAnds(), g.Sweep().NumAnds())
	}
	if res.Error > opt.Threshold+1e-12 {
		t.Errorf("best-so-far error %v exceeds budget %v", res.Error, opt.Threshold)
	}
	real := measure(t, g, res.Graph, metric.MSE, nil, 1024, 7)
	if math.Abs(real-res.Error) > 1e-9*(1+math.Abs(real)) {
		t.Errorf("reported error %v but independent measurement %v", res.Error, real)
	}
}

// A context cancelled before the run starts must yield the original
// (swept) circuit untouched, zero error, and StopReason = cancelled.
func TestCancelBeforeStart(t *testing.T) {
	g := gen.MultU(6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: 100, Patterns: 512}
	res, err := Run(ctx, g, opt, Hooks{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.StopReason != StopCancelled {
		t.Errorf("StopReason = %q, want %q", res.Stats.StopReason, StopCancelled)
	}
	if res.Stats.Applied != 0 {
		t.Errorf("%d LACs applied under a dead context", res.Stats.Applied)
	}
	if res.Error != 0 {
		t.Errorf("error %v for an untouched circuit", res.Error)
	}
	if res.Graph.NumAnds() != g.Sweep().NumAnds() {
		t.Errorf("graph changed: %d vs %d ANDs", res.Graph.NumAnds(), g.Sweep().NumAnds())
	}
}

// Options.TimeLimit must stop the run with StopReason = deadline and a
// valid best-so-far result, for every flow.
func TestTimeLimitStopsEveryFlow(t *testing.T) {
	g := gen.VecMul(4, 10)
	for _, flow := range []Flow{FlowConventional, FlowVECBEE, FlowAccALS, FlowDP, FlowDPSA} {
		opt := bigOpts(g.NumPOs())
		opt.Flow = flow
		opt.TimeLimit = 50 * time.Millisecond
		start := time.Now()
		res, err := Run(context.Background(), g, opt, Hooks{})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%v: %v", flow, err)
		}
		if res.Stats.StopReason != StopDeadline {
			t.Errorf("%v: StopReason = %q, want %q", flow, res.Stats.StopReason, StopDeadline)
		}
		if err := res.Graph.Check(); err != nil {
			t.Errorf("%v: graph invalid after deadline: %v", flow, err)
		}
		real := measure(t, g, res.Graph, metric.MSE, nil, 1024, 7)
		if math.Abs(real-res.Error) > 1e-9*(1+math.Abs(real)) {
			t.Errorf("%v: reported error %v but independent measurement %v", flow, res.Error, real)
		}
		// Generous CI bound: the engine still has to finish the wave and
		// sweep, but a 50ms limit must not run for many seconds.
		if elapsed > 30*time.Second {
			t.Errorf("%v: run with 50ms limit took %v", flow, elapsed)
		}
	}
}

// The remaining stop reasons: natural completion reports budget, the
// MaxIters cap reports max-iters.
func TestStopReasonBudgetAndMaxIters(t *testing.T) {
	g := gen.MultU(5, 5)
	R := metric.ReferenceError(g.NumPOs())
	opt := Options{Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R, Patterns: 512}
	res, err := Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopReason != StopBudget {
		t.Errorf("completed run: StopReason = %q, want %q", res.Stats.StopReason, StopBudget)
	}

	opt.MaxIters = 2
	res, err = Run(context.Background(), g, opt, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopReason != StopMaxIters {
		t.Errorf("capped run: StopReason = %q, want %q", res.Stats.StopReason, StopMaxIters)
	}
	if res.Stats.Applied != 2 {
		t.Errorf("capped run applied %d LACs, want 2", res.Stats.Applied)
	}
}

// A run under a cancellable context that is never cancelled must be
// bit-identical to a run under context.Background() at every thread count
// — the context checks may not perturb the synthesis trajectory.
func TestRunContextUncancelledBitIdentical(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	for _, threads := range []int{1, 4, 0} {
		opt := Options{
			Flow: FlowDPSA, Metric: metric.MSE, Threshold: R * R,
			Patterns: 1024, Seed: 7, Threads: threads, UseConstLACs: true,
			UseSASIMILACs: true,
		}
		plain, err := Run(context.Background(), g, opt, Hooks{})
		if err != nil {
			t.Fatalf("Run(threads=%d): %v", threads, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ctxed, err := Run(ctx, g, opt, Hooks{})
		cancel()
		if err != nil {
			t.Fatalf("Run(cancellable, threads=%d): %v", threads, err)
		}
		if plain.Error != ctxed.Error {
			t.Errorf("threads=%d: Error %v vs %v", threads, plain.Error, ctxed.Error)
		}
		// Every deterministic counter — trajectory, work, cache, pool and
		// stop reason — must agree.
		if p, c := normalizeStats(plain.Stats), normalizeStats(ctxed.Stats); !reflect.DeepEqual(p, c) {
			t.Errorf("threads=%d: Stats differ:\n plain:       %+v\n cancellable: %+v", threads, p, c)
		}
		if plain.Graph.NumAnds() != ctxed.Graph.NumAnds() {
			t.Errorf("threads=%d: NumAnds %d vs %d", threads, plain.Graph.NumAnds(), ctxed.Graph.NumAnds())
		}
	}
}
