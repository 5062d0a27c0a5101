package core

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"dpals/internal/aig"
	"dpals/internal/aiger"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/obs"
)

// normalizeStats zeroes Runtime, the one wall-clock field, which
// legitimately differs between runs; everything else must be bit-identical.
func normalizeStats(s Stats) Stats {
	s.Runtime = 0
	return s
}

// TestTracingDoesNotPerturbResults is the central guarantee of the
// observability layer: attaching a recording tracer and a progress
// renderer must leave the synthesis result — circuit bytes
// and deterministic Stats — bit-identical to an unobserved run, for every
// flow, every metric, and every thread count. The WCE case runs the SAT
// certifier under a conflict cap, which keeps limited runs deterministic,
// on a circuit beyond CertifiesByEnumeration; WCE-enum runs the streamed
// enumeration certifier on the shared multiplier.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	g := gen.MultU(5, 5)
	R := metric.ReferenceError(g.NumPOs())
	sat := satCircuit()

	flows := []struct {
		name  string
		flow  Flow
		tweak func(*Options)
	}{
		{"Conventional", FlowConventional, nil},
		{"VECBEE", FlowVECBEE, func(o *Options) { o.DepthLimit = 3 }},
		{"AccALS", FlowAccALS, nil},
		{"DP", FlowDP, nil},
		{"DP-SA", FlowDPSA, nil},
	}
	metricCases := []struct {
		name      string
		kind      metric.Kind
		threshold float64
		g         *aig.Graph // nil: the shared multiplier
	}{
		{"ER", metric.ER, 0.05, nil},
		{"MSE", metric.MSE, R * R, nil},
		{"MED", metric.MED, R, nil},
		{"MHD", metric.MHD, 0.5, nil},
		{"WCE", metric.WCE, metric.ReferenceError(sat.NumPOs()), sat},
		{"WCE-enum", metric.WCE, R, nil},
	}

	for _, fc := range flows {
		for _, mc := range metricCases {
			t.Run(fc.name+"/"+mc.name, func(t *testing.T) {
				c := g
				if mc.g != nil {
					c = mc.g
				}
				run := func(threads int, traced bool) (*Result, []byte) {
					opt := Options{
						Flow: fc.flow, Metric: mc.kind, Threshold: mc.threshold,
						Patterns: 512, Seed: 7, Threads: threads, MaxIters: 10,
						UseConstLACs: true, UseSASIMILACs: true,
					}
					if mc.kind == metric.WCE {
						opt.WCEBound = uint64(mc.threshold)
						opt.CertEvery = 3
						opt.CertConflictLimit = 2000
					}
					if fc.tweak != nil {
						fc.tweak(&opt)
					}
					ctx := context.Background()
					if traced {
						ctx = obs.WithTracer(ctx, obs.New())
						ctx = obs.WithProgress(ctx, obs.NewProgress(io.Discard, time.Millisecond))
					}
					res, err := Run(ctx, c, opt, Hooks{})
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

// TestSpanTreeMatchesStats: the span tree must be well-formed — one root,
// no dangling parents, no spans left open — and its counters must agree
// with the Stats: every eval span, in every flow, carries the same
// attributes, and their memo hits sum to Stats.EvalMemoHits.
func TestSpanTreeMatchesStats(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())
	for _, tc := range []struct {
		name string
		flow Flow
		wce  bool
	}{
		{"DP-SA", FlowDPSA, false},
		{"Conventional", FlowConventional, false},
		{"VECBEE", FlowVECBEE, false},
		{"WCE", FlowDP, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := g
			opt := Options{Flow: tc.flow, Metric: metric.MSE, Threshold: R * R}
			if tc.wce {
				// Beyond CertifiesByEnumeration: the run certifies by SAT.
				c = satCircuit()
				opt.Metric = metric.WCE
				opt.WCEBound = uint64(metric.ReferenceError(c.NumPOs()))
				opt.CertEvery = 4
			}
			opt.Patterns = 512
			opt.Seed = 3
			opt.Threads = 4
			opt.MaxIters = 15
			tr := obs.New()
			res, err := Run(obs.WithTracer(context.Background(), tr), c, opt, Hooks{})
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

			// Counter parity: every eval span, phase 1 or 2, carries the
			// same attributes, and its memo hits sum to Stats.EvalMemoHits.
			var memoHits int64
			for _, sp := range spans {
				if sp.Name != "eval" || sp.Lane != 0 {
					continue
				}
				attrs := map[string]any{}
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				for _, key := range []string{"targets", "lacs_best", "work", "memo_hits"} {
					if _, ok := attrs[key]; !ok {
						t.Errorf("eval span %d lacks attribute %q", sp.ID, key)
					}
				}
				h, _ := attrs["memo_hits"].(int64)
				memoHits += h
			}
			if memoHits != res.Stats.EvalMemoHits {
				t.Errorf("eval spans sum %d memo hits, Stats.EvalMemoHits %d", memoHits, res.Stats.EvalMemoHits)
			}
			if tc.wce && res.Stats.CertCalls == 0 {
				t.Error("WCE run recorded no cert calls")
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
