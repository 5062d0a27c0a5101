package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"dpals/internal/obs"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least q·n samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantiles is the ladder of percentiles a timing may be reported at.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailQuantile returns the highest percentile of the ladder that leaves at
// least ten of n samples strictly beyond it, or 0 when even the median
// does not: a percentile with fewer samples above it is one or two
// outliers, not a tail.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// quartiles returns Q1, Q2 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here match the ones an external check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// iqr returns Q3 − Q1.
func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}

// gmean returns the geometric mean of xs; every sample must be positive
// (a non-positive sample yields NaN, which the caller reports as a bug).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Layer is one row of the self-time table: every span that sits at Path in
// the nested span tree, with its call count, total wall time and self time
// (wall time minus the part of it that main-lane children cover).
type Layer struct {
	Path   string  `json:"path"`
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// Breakdown is the self-time aggregation of one traced pass.
type Breakdown struct {
	Layers map[string]*Layer
	// RootMS is the summed wall time of the root spans; the self times of
	// all layers add up to it when the spans nest properly.
	RootMS float64
	// LaneMS is the summed duration of worker-lane spans, and LaneParentMS
	// the summed wall time of the steps those lanes ran under: their ratio,
	// divided by the thread count, is how busy the workers were.
	LaneMS       float64
	LaneParentMS float64
}

// SelfSum returns the summed self time of every layer.
func (b Breakdown) SelfSum() float64 {
	s := 0.0
	for _, l := range b.Layers {
		s += l.SelfMS
	}
	return s
}

// Sum returns the summed self time of the layers whose path ends with one
// of the given suffixes (each matched at a path-segment boundary).
func (b Breakdown) Sum(suffixes ...string) float64 {
	s := 0.0
	for p, l := range b.Layers {
		for _, suf := range suffixes {
			if p == suf || strings.HasSuffix(p, "/"+suf) {
				s += l.SelfMS
				break
			}
		}
	}
	return s
}

// aggregate builds the self-time table of spans. The engine opens its
// "run" span as a root of its own, so every root not named root is first
// attached to the innermost main-lane span whose interval contains it: the
// benchmark's span around the call that ran it. Spans in worker lanes (and
// their descendants) are left out of self time, because they run
// concurrently with the main-lane step that waits for them; they are
// summed into LaneMS instead.
func aggregate(spans []obs.SpanData, root string) Breakdown {
	byID := make(map[uint64]int, len(spans))
	for i, sp := range spans {
		byID[sp.ID] = i
	}
	parent := make([]int, len(spans))
	for i, sp := range spans {
		parent[i] = -1
		if sp.Parent != 0 {
			if p, ok := byID[sp.Parent]; ok {
				parent[i] = p
			}
		}
	}
	end := func(sp obs.SpanData) time.Duration { return sp.Start + sp.Dur }
	for i, sp := range spans {
		if parent[i] != -1 || sp.Name == root {
			continue
		}
		best := -1
		for j, c := range spans {
			// A container was opened before the span it contains; ids are
			// allocation-ordered, so this also keeps descendants out.
			if c.ID >= sp.ID || c.Lane != 0 || c.Start > sp.Start || end(c) < end(sp) {
				continue
			}
			if best == -1 || c.ID > spans[best].ID {
				best = j
			}
		}
		parent[i] = best
	}

	b := Breakdown{Layers: map[string]*Layer{}}
	paths := make([]string, len(spans))
	var pathOf func(i int) string
	pathOf = func(i int) string {
		if paths[i] != "" {
			return paths[i]
		}
		p := spans[i].Name
		if parent[i] >= 0 {
			p = pathOf(parent[i]) + "/" + p
		}
		paths[i] = p
		return p
	}
	inLane := func(i int) bool {
		for ; i >= 0; i = parent[i] {
			if spans[i].Lane != 0 {
				return true
			}
		}
		return false
	}
	children := make([][]int, len(spans))
	hasLanes := make([]bool, len(spans))
	for i, sp := range spans {
		p := parent[i]
		if sp.Lane != 0 {
			b.LaneMS += ms(sp.Dur)
			if p >= 0 && spans[p].Lane == 0 {
				hasLanes[p] = true
			}
			continue
		}
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i, sp := range spans {
		if inLane(i) {
			continue
		}
		if parent[i] < 0 {
			b.RootMS += ms(sp.Dur)
		}
		if hasLanes[i] {
			b.LaneParentMS += ms(sp.Dur)
		}
		covered := union(spans, children[i])
		path := pathOf(i)
		l := b.Layers[path]
		if l == nil {
			l = &Layer{Path: path}
			b.Layers[path] = l
		}
		l.Count++
		l.WallMS += ms(sp.Dur)
		l.SelfMS += ms(sp.Dur - covered)
	}
	return b
}

// union returns the length of the union of the intervals of spans[idx].
func union(spans []obs.SpanData, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(idx))
	for k, i := range idx {
		iv[k] = [2]time.Duration{spans[i].Start, spans[i].Start + spans[i].Dur}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
