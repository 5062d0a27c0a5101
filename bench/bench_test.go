package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickRunsEmitEveryMetric runs every workload at tiny sizes, untraced
// and traced, and checks the result line against BENCHMARK.json: every
// metric the mode reports is there with its unit, and nothing failed.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := mainArgs([]string{"-workload", w.Name, "-seed", "2", "-seconds", "0.2",
					"-trace", trace, "-quick", "-out", dir}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want the %d BENCHMARK.json names", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if trace == "0" {
					if v := res.Metrics["ok_frac"].Value; v != 1 {
						t.Errorf("ok_frac = %v, want 1", v)
					}
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				var layers struct {
					RootMS       float64 `json:"root_ms"`
					ResidualFrac float64 `json:"residual_frac"`
				}
				data, err := os.ReadFile(filepath.Join(dir, w.Name+".layers.json"))
				if err == nil {
					err = json.Unmarshal(data, &layers)
				}
				if err != nil {
					t.Fatal(err)
				}
				if layers.RootMS <= 0 || layers.ResidualFrac > 0.02 || layers.ResidualFrac < -0.02 {
					t.Errorf("self times miss the root wall time %v ms by %v", layers.RootMS, layers.ResidualFrac)
				}
			})
		}
	}
}

// The metric lists in the code and in BENCHMARK.json must agree.
func TestMetricListsMatchSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		code []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer(), spec.PerLayer}} {
		if len(tc.code) != len(tc.spec) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", tc.name, len(tc.code), len(tc.spec))
			continue
		}
		for i, d := range tc.code {
			if d.name != tc.spec[i].Name || d.unit != tc.spec[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", tc.name, i, d.name, d.unit, tc.spec[i].Name, tc.spec[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloadNames, names)
	}
}
