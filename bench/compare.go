package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// side summarises one side's samples of a metric.
type side struct {
	Q1, Median, Q3 float64
	N              int
}

func summarise(xs []float64) side {
	q1, q2, q3 := quartiles(xs)
	return side{q1, q2, q3, len(xs)}
}

// cmpRow is the comparison of one metric on one workload.
type cmpRow struct {
	Workload, Metric string
	Parent, Change   side
	Pairs            int
	WinFrac          float64 // share of pairs the change wins; ties count for neither
	Verdict          string
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	worse      = "worse" // a per-layer metric moved the wrong way by the improvement rule
	same       = "same"  // a per-layer metric did not move by that rule
)

// verdict applies the gate. The change improved a metric when it wins at
// least nine in ten of at least ten pairs (run i of the parent against run
// i of the change) and the medians differ by more than the parent's
// interquartile range. An end-to-end metric regressed when the change's
// median is worse than the parent's by more than the bound (a share of the
// parent's median); when the parent's own spread is wider than the bound
// the metric is unresolved instead, unless every run of one side beats
// every run of the other. A per-layer metric has no bound: it is improved,
// worse (the improvement rule mirrored) or the same.
func verdict(m specMetric, bounded bool, parent, change []float64) (string, int, float64) {
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pairs := min(len(parent), len(change))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	winFrac := 0.0
	if pairs > 0 {
		winFrac = float64(wins) / float64(pairs)
	}
	pm, cm := median(parent), median(change)
	gap := math.Abs(cm - pm)
	spread := iqr(parent)
	resolved := func(n int) bool { return pairs >= 10 && 10*n >= 9*pairs && gap > spread }
	if resolved(wins) && better(cm, pm) {
		return improved, pairs, winFrac
	}
	if !bounded {
		if resolved(losses) && better(pm, cm) {
			return worse, pairs, winFrac
		}
		return same, pairs, winFrac
	}
	// rel is how much worse the change's median is, as a share of the
	// parent's; negative when it is better.
	rel := 0.0
	if pm != 0 {
		rel = (cm - pm) / math.Abs(pm)
	} else if cm != pm {
		rel = math.Inf(1) * (cm - pm)
	}
	if !lower {
		rel = -rel
	}
	relSpread := 0.0
	if pm != 0 {
		relSpread = spread / math.Abs(pm)
	} else if spread > 0 {
		relSpread = math.Inf(1)
	}
	sp, sc := sorted(parent), sorted(change)
	dominates := func(a, b []float64) bool { // every run of a beats every run of b
		if lower {
			return a[len(a)-1] < b[0]
		}
		return a[0] > b[len(b)-1]
	}
	if len(sp) == 0 || len(sc) == 0 {
		return unresolved, pairs, winFrac
	}
	if relSpread > m.Bound {
		switch {
		case dominates(sc, sp):
			return unchanged, pairs, winFrac
		case dominates(sp, sc) && rel > m.Bound:
			return regressed, pairs, winFrac
		}
		return unresolved, pairs, winFrac
	}
	if rel > m.Bound {
		return regressed, pairs, winFrac
	}
	return unchanged, pairs, winFrac
}

// compareReports compares every metric of the spec on every workload both
// sides ran. Runs pair up in the order given within each workload.
func compareReports(spec *benchSpec, parent, change []*report) []cmpRow {
	group := func(rs []*report) map[string][]*report {
		g := map[string][]*report{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	pg, cg := group(parent), group(change)
	values := func(rs []*report, name string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	var rows []cmpRow
	for _, w := range sortedKeys(pg) {
		if cg[w] == nil {
			continue
		}
		for k, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range list {
				p, c := values(pg[w], m.Name), values(cg[w], m.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v, pairs, wf := verdict(m, k == 0, p, c)
				rows = append(rows, cmpRow{Workload: w, Metric: m.Name, Parent: summarise(p),
					Change: summarise(c), Pairs: pairs, WinFrac: wf, Verdict: v})
			}
		}
	}
	return rows
}

// runCompare implements -compare parent.json... -- change.json...
func runCompare(specPath string, args []string, w io.Writer) error {
	cut := -1
	for i, a := range args {
		if a == "--" {
			cut = i
			break
		}
	}
	if cut <= 0 || cut == len(args)-1 {
		return fmt.Errorf("usage: -compare parent.json... -- change.json...")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	load := func(paths []string) ([]*report, error) {
		var rs []*report
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			r := &report{}
			if err := json.Unmarshal(data, r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			rs = append(rs, r)
		}
		return rs, nil
	}
	parent, err := load(args[:cut])
	if err != nil {
		return err
	}
	change, err := load(args[cut+1:])
	if err != nil {
		return err
	}
	rows := compareReports(spec, parent, change)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	fmt.Fprintf(w, "%-13s %-24s %34s %34s %5s %5s  %s\n", "workload", "metric",
		"parent q1 / median / q3", "change q1 / median / q3", "pairs", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-24s %10.4g %11.4g %11.4g %10.4g %11.4g %11.4g %5d %5.2f  %s\n",
			r.Workload, r.Metric, r.Parent.Q1, r.Parent.Median, r.Parent.Q3,
			r.Change.Q1, r.Change.Median, r.Change.Q3, r.Pairs, r.WinFrac, r.Verdict)
	}
	return nil
}
