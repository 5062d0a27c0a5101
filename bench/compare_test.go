package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns ten samples spread ±spread around m.
func around(m, spread float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = m + spread*(float64(i%5)-2)/2
	}
	return xs
}

func TestVerdict(t *testing.T) {
	lowerBound := specMetric{Name: "synth_s_gmean", Better: "lower", Bound: 0.10}
	higherBound := specMetric{Name: "req_per_s", Better: "higher", Bound: 0.10}
	layer := specMetric{Name: "eval.p1_ms", Better: "lower"}
	eightOfTen := around(90, 1)
	eightOfTen[0], eightOfTen[1] = 200, 200 // the change loses two pairs
	for _, tc := range []struct {
		name           string
		m              specMetric
		bounded        bool
		parent, change []float64
		want           string
	}{
		{"faster", lowerBound, true, around(100, 1), around(90, 1), improved},
		{"within bound", lowerBound, true, around(100, 1), around(105, 1), unchanged},
		{"slower", lowerBound, true, around(100, 1), around(120, 1), regressed},
		{"wins 8 of 10", lowerBound, true, around(100, 1), eightOfTen, unchanged},
		{"gap inside the parent's IQR", lowerBound, true, around(100, 40), around(95, 40), unresolved},
		{"noisy parent, change always better", lowerBound, true, around(100, 30), around(40, 1), improved},
		{"noisy parent, change always worse", lowerBound, true, around(100, 30), around(300, 1), regressed},
		{"higher is better: more", higherBound, true, around(100, 1), around(110, 1), improved},
		{"higher is better: fewer", higherBound, true, around(100, 1), around(80, 1), regressed},
		{"too few pairs to claim", lowerBound, true, around(100, 1)[:5], around(90, 1)[:5], unchanged},
		{"layer faster", layer, false, around(100, 1), around(90, 1), improved},
		{"layer slower", layer, false, around(100, 1), around(110, 1), worse},
		{"layer flat", layer, false, around(100, 1), around(100, 1), same},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, pairs, _ := verdict(tc.m, tc.bounded, tc.parent, tc.change)
			if got != tc.want {
				t.Errorf("verdict = %s, want %s", got, tc.want)
			}
			if pairs != min(len(tc.parent), len(tc.change)) {
				t.Errorf("pairs = %d", pairs)
			}
		})
	}
}

func TestCompareReportsOneRowPerWorkload(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "synth_s_gmean", Unit: "s", Better: "lower", Bound: 0.1}}}
	mk := func(w string, v float64) *report {
		return &report{Workload: w, Metrics: map[string]metricValue{"synth_s_gmean": {Value: v, Unit: "s"}}}
	}
	var parent, change []*report
	for i, x := range around(1, 0.01) {
		parent = append(parent, mk("a", x), mk("b", x))
		change = append(change, mk("a", x*0.8), mk("b", around(1, 0.01)[i]))
	}
	rows := compareReports(spec, parent, change)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per workload", len(rows))
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Workload] = r.Verdict
		if r.Pairs != 10 || r.Parent.N != 10 {
			t.Errorf("%s: pairs %d, parent n %d", r.Workload, r.Pairs, r.Parent.N)
		}
	}
	if got["a"] != improved || got["b"] != unchanged {
		t.Errorf("verdicts %v, want a improved, b unchanged", got)
	}
}

func TestRunCompareReadsFiles(t *testing.T) {
	dir := t.TempDir()
	var parent, change []string
	for i, x := range around(1, 0.01) {
		p := filepath.Join(dir, "p"+string(rune('0'+i))+".json")
		c := filepath.Join(dir, "c"+string(rune('0'+i))+".json")
		for _, f := range []struct {
			path string
			v    float64
		}{{p, x}, {c, x * 1.5}} {
			r := &report{Workload: "w", Metrics: map[string]metricValue{"synth_s_gmean": {Value: f.v, Unit: "s"}}}
			if err := writeJSON(f.path, r); err != nil {
				t.Fatal(err)
			}
		}
		parent, change = append(parent, p), append(change, c)
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"synth_s_gmean","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := append(append(parent, "--"), change...)
	if err := runCompare(spec, args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), regressed) {
		t.Errorf("a 1.5× slower change is not reported as regressed:\n%s", out.String())
	}
	if err := runCompare(spec, parent, &out); err == nil {
		t.Error("missing -- separator accepted")
	}
}
