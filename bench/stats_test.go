package main

import (
	"math"
	"testing"
	"time"

	"dpals/internal/obs"
)

func TestMedianPercentileGmean(t *testing.T) {
	for _, tc := range []struct {
		name      string
		xs        []float64
		median    float64
		p50, p99  float64
		gmean     float64
		gmeanIsNa bool
	}{
		{"empty", nil, 0, 0, 0, 0, false},
		{"one", []float64{4}, 4, 4, 4, 4, false},
		{"odd", []float64{9, 1, 3}, 3, 3, 9, 3, false},
		{"even", []float64{1, 4, 2, 8}, 3, 2, 8, 2 * math.Sqrt(2), false},
		{"zero", []float64{0, 1}, 0.5, 0, 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := median(tc.xs); got != tc.median {
				t.Errorf("median = %v, want %v", got, tc.median)
			}
			if got := percentile(tc.xs, 0.5); got != tc.p50 {
				t.Errorf("p50 = %v, want %v", got, tc.p50)
			}
			if got := percentile(tc.xs, 0.99); got != tc.p99 {
				t.Errorf("p99 = %v, want %v", got, tc.p99)
			}
			got := gmean(tc.xs)
			if tc.gmeanIsNa != math.IsNaN(got) || (!tc.gmeanIsNa && math.Abs(got-tc.gmean) > 1e-12) {
				t.Errorf("gmean = %v, want %v", got, tc.gmean)
			}
		})
	}
}

// The guide's rule: the highest percentile with at least ten samples
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {3000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5}, [3]float64{1.8125, 5.25, 7.875}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		if got := iqr(tc.xs); got != tc.want[2]-tc.want[0] {
			t.Errorf("iqr(%v) = %v", tc.xs, got)
		}
	}
}

// span builds one finished span; times are in ms.
func span(id, parent uint64, name string, lane int, start, dur float64) obs.SpanData {
	return obs.SpanData{ID: id, Parent: parent, Name: name, Lane: lane,
		Start: time.Duration(start * float64(time.Millisecond)), Dur: time.Duration(dur * float64(time.Millisecond))}
}

// A synthetic pass: two jobs, each with an engine run opened as a root of
// its own, one analysis step fanned out to two worker lanes.
func TestAggregateSelfTimes(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, "pass", 0, 0, 100),
		span(2, 1, "job", 0, 1, 60),
		span(3, 0, "run", 0, 2, 55), // engine root: belongs under job 2
		span(4, 3, "init", 0, 2, 5),
		span(5, 3, "round", 0, 7, 45),
		span(6, 5, "phase1", 0, 7, 30),
		span(7, 6, "cpm", 0, 8, 10),
		span(8, 7, "cpm", 1, 8, 9), // worker lanes
		span(9, 7, "cpm", 2, 8, 7),
		span(10, 6, "eval", 0, 18, 15),
		span(11, 5, "apply", 0, 40, 8),
		span(12, 11, "resim", 0, 41, 3),
		span(13, 3, "sweep", 0, 53, 3),
		span(14, 1, "aiger.write", 0, 62, 2),
		span(15, 1, "job", 0, 65, 30),
		span(16, 0, "run", 0, 66, 28), // belongs under job 15, not job 2
	}
	b := aggregate(spans, "pass")
	if b.RootMS != 100 {
		t.Fatalf("RootMS = %v, want 100", b.RootMS)
	}
	if got := b.SelfSum(); math.Abs(got-b.RootMS) > 1e-9 {
		t.Errorf("Σ self = %v, want the root wall %v", got, b.RootMS)
	}
	want := map[string][2]float64{ // path → {count, self ms}
		"pass":                           {1, 100 - 60 - 2 - 30},
		"pass/job":                       {2, (60 - 55) + (30 - 28)},
		"pass/job/run":                   {2, (55 - 5 - 45 - 3) + 28},
		"pass/job/run/init":              {1, 5},
		"pass/job/run/round":             {1, 45 - 30 - 8},
		"pass/job/run/round/phase1":      {1, 30 - 10 - 15},
		"pass/job/run/round/phase1/cpm":  {1, 10},
		"pass/job/run/round/phase1/eval": {1, 15},
		"pass/job/run/round/apply":       {1, 8 - 3},
		"pass/job/run/round/apply/resim": {1, 3},
		"pass/job/run/sweep":             {1, 3},
		"pass/aiger.write":               {1, 2},
	}
	if len(b.Layers) != len(want) {
		t.Errorf("got %d layers, want %d: %v", len(b.Layers), len(want), b.Layers)
	}
	for p, w := range want {
		l := b.Layers[p]
		if l == nil {
			t.Errorf("missing layer %s", p)
			continue
		}
		if float64(l.Count) != w[0] || math.Abs(l.SelfMS-w[1]) > 1e-9 {
			t.Errorf("%s: count %d self %v, want %v %v", p, l.Count, l.SelfMS, w[0], w[1])
		}
	}
	if b.LaneMS != 16 || b.LaneParentMS != 10 {
		t.Errorf("lanes %v ms under %v ms of steps, want 16 under 10", b.LaneMS, b.LaneParentMS)
	}
	if got := b.Sum("phase1/cpm", "eval"); got != 25 {
		t.Errorf("Sum(phase1/cpm, eval) = %v, want 25", got)
	}
	if got := spanMetrics(b, 2)["par.busy_frac"]; got != 0.8 {
		t.Errorf("par.busy_frac = %v, want 16/(2·10)", got)
	}
}

func TestUnion(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, "a", 0, 0, 10),
		span(2, 0, "b", 0, 5, 10), // overlaps a
		span(3, 0, "c", 0, 20, 5), // disjoint
		span(4, 0, "d", 0, 21, 1), // inside c
	}
	if got := union(spans, []int{0, 1, 2, 3}); got != 20*time.Millisecond {
		t.Errorf("union = %v, want 20ms", got)
	}
}
