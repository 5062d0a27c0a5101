package core

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"dpals/internal/aiger"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/obs"
)

// normalizeStats strips the wall-clock fields, which legitimately differ
// between runs; everything else must be bit-identical.
func normalizeStats(s Stats) Stats {
	s.Runtime = 0
	s.Step = StepTimes{}
	s.PhaseTime = PhaseTimes{}
	return s
}

// TestTracingDoesNotPerturbResults is the central guarantee of the
// observability layer: attaching a recording tracer, a metrics registry
// and a progress renderer must leave the synthesis result — circuit bytes
// and deterministic Stats — bit-identical to an unobserved run, for every
// flow, every metric, and every thread count.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	g := gen.MultU(5, 5)
	R := metric.ReferenceError(g.NumPOs())

	flows := []struct {
		name  string
		flow  Flow
		tweak func(*Options)
	}{
		{"Conventional", FlowConventional, nil},
		{"VECBEE", FlowVECBEE, func(o *Options) { o.DepthLimit = 3 }},
		{"AccALS", FlowAccALS, func(o *Options) { o.AccTol = 0.5 }},
		{"DP", FlowDP, nil},
		{"DP-SA", FlowDPSA, nil},
	}
	metricCases := []struct {
		name      string
		kind      metric.Kind
		threshold float64
	}{
		{"ER", metric.ER, 0.05},
		{"MSE", metric.MSE, R * R},
		{"MED", metric.MED, R},
		{"MHD", metric.MHD, 0.5},
	}

	for _, fc := range flows {
		for _, mc := range metricCases {
			t.Run(fc.name+"/"+mc.name, func(t *testing.T) {
				run := func(threads int, traced bool) (*Result, []byte) {
					opt := DefaultOptions(fc.flow, mc.kind, mc.threshold)
					opt.Patterns = 512
					opt.Seed = 7
					opt.Threads = threads
					opt.MaxIters = 10
					opt.LACs = lac.Options{Constants: true, SASIMI: true}
					if fc.tweak != nil {
						fc.tweak(&opt)
					}
					ctx := context.Background()
					if traced {
						ctx = obs.WithTracer(ctx, obs.New())
						ctx = obs.WithMetrics(ctx, obs.NewMetrics())
						ctx = obs.WithProgress(ctx, obs.NewProgress(io.Discard, time.Millisecond))
					}
					res, err := Run(ctx, g, opt)
					if err != nil {
						t.Fatalf("Run(threads=%d traced=%v): %v", threads, traced, err)
					}
					var buf bytes.Buffer
					if err := aiger.Write(&buf, res.Graph); err != nil {
						t.Fatal(err)
					}
					return res, buf.Bytes()
				}

				base, baseAIG := run(1, false)
				want := normalizeStats(base.Stats)
				for _, threads := range []int{1, 4, 0} {
					got, gotAIG := run(threads, true)
					if !bytes.Equal(baseAIG, gotAIG) {
						t.Errorf("threads=%d: traced circuit differs from untraced baseline", threads)
					}
					if got.Error != base.Error {
						t.Errorf("threads=%d: Error %v, want %v", threads, got.Error, base.Error)
					}
					if ns := normalizeStats(got.Stats); !reflect.DeepEqual(ns, want) {
						t.Errorf("threads=%d: Stats diverge\n traced: %+v\n  plain: %+v", threads, ns, want)
					}
				}
			})
		}
	}
}

// sumSpans returns the summed duration of all main-lane spans with one of
// the names. Worker lane spans share their parent step's name and run
// concurrently inside it, so they are excluded from wall-clock sums.
func sumSpans(spans []obs.SpanData, names ...string) time.Duration {
	var total time.Duration
	for _, sp := range spans {
		if sp.Lane != 0 {
			continue
		}
		for _, n := range names {
			if sp.Name == n {
				total += sp.Dur
			}
		}
	}
	return total
}

// TestSpanTreeMatchesStats: the trace and the Stats must be two views of
// the same measurements — per-step span durations sum exactly to
// Stats.Step, per-phase spans exactly to Stats.PhaseTime (single timing
// code path) — and the tree must be well-formed: no dangling parents, no
// spans left open.
func TestSpanTreeMatchesStats(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	for _, tc := range []struct {
		name string
		flow Flow
	}{
		{"DP-SA", FlowDPSA},
		{"Conventional", FlowConventional},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions(tc.flow, metric.MSE, R*R)
			opt.Patterns = 512
			opt.Seed = 3
			opt.Threads = 4
			opt.MaxIters = 15
			tr := obs.New()
			res, err := Run(obs.WithTracer(context.Background(), tr), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			spans := tr.Snapshot()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}

			ids := map[uint64]bool{}
			roots := 0
			for _, sp := range spans {
				if sp.Open {
					t.Errorf("span %q left open after the run", sp.Name)
				}
				ids[sp.ID] = true
				if sp.Parent == 0 {
					roots++
					if sp.Name != "run" {
						t.Errorf("root span named %q, want run", sp.Name)
					}
				}
			}
			if roots != 1 {
				t.Fatalf("%d root spans, want 1", roots)
			}
			for _, sp := range spans {
				if sp.Parent != 0 && !ids[sp.Parent] {
					t.Errorf("span %q has dangling parent %d", sp.Name, sp.Parent)
				}
			}

			// Exact, not approximate: Stats.Step and Stats.PhaseTime are
			// accumulated from these same span durations.
			if got, want := sumSpans(spans, "cuts", "cuts.update", "cuts.warm"), res.Stats.Step.Cuts; got != want {
				t.Errorf("cut spans sum %v, Stats.Step.Cuts %v", got, want)
			}
			if got, want := sumSpans(spans, "cpm", "cpm.warm"), res.Stats.Step.CPM; got != want {
				t.Errorf("cpm spans sum %v, Stats.Step.CPM %v", got, want)
			}
			if got, want := sumSpans(spans, "eval"), res.Stats.Step.Eval; got != want {
				t.Errorf("eval spans sum %v, Stats.Step.Eval %v", got, want)
			}
			if got, want := sumSpans(spans, "phase1"), res.Stats.PhaseTime.Phase1; got != want {
				t.Errorf("phase1 spans sum %v, Stats.PhaseTime.Phase1 %v", got, want)
			}
			if got, want := sumSpans(spans, "phase2"), res.Stats.PhaseTime.Phase2; got != want {
				t.Errorf("phase2 spans sum %v, Stats.PhaseTime.Phase2 %v", got, want)
			}
			if res.Stats.PhaseTime.Phase1 == 0 {
				t.Error("PhaseTime.Phase1 is zero on a completed run")
			}
			if tc.flow == FlowDPSA && res.Stats.Phase2 > 0 && res.Stats.PhaseTime.Phase2 == 0 {
				t.Error("PhaseTime.Phase2 is zero despite phase-2 iterations")
			}

			// Worker lane spans from the parallel pipeline appear under
			// recorded steps and are all closed (covered above); at
			// Threads=4 at least one should exist.
			lanes := 0
			for _, sp := range spans {
				if sp.Lane > 0 {
					lanes++
				}
			}
			if lanes == 0 {
				t.Error("no worker lane spans recorded at Threads=4")
			}
		})
	}
}

// TestUntracedRunStillTimesSteps: without any tracer the engine must still
// produce non-zero Step and PhaseTime figures via the no-op tracer's
// timestamps — the one-code-path property that fixed the -stats drift.
func TestUntracedRunStillTimesSteps(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	opt := DefaultOptions(FlowDPSA, metric.MSE, R*R)
	opt.Patterns = 512
	opt.MaxIters = 10
	res, err := Run(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Step.Total() == 0 {
		t.Error("Step times all zero on an untraced run")
	}
	if res.Stats.PhaseTime.Total() == 0 {
		t.Error("PhaseTime zero on an untraced run")
	}
	if res.Stats.PhaseTime.Phase1 == 0 {
		t.Error("PhaseTime.Phase1 zero on an untraced run")
	}
}
