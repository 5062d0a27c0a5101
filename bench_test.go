// Benchmarks regenerating the paper's tables and figures. Each benchmark
// is a full (smoke-scale) rerun of one experiment of §IV; custom metrics
// report the quantities the paper's claims are about (speedups, ADP
// deltas, candidate-set hit rates). For the complete experiments, use
// cmd/repro; EXPERIMENTS.md records the paper-vs-measured comparison.
package dpals_test

import (
	"io"
	"testing"
	"time"

	"dpals/internal/gen"
	"dpals/internal/repro"
	"dpals/internal/techmap"
)

// smokeCfg keeps `go test -bench=.` tractable on one core: subset of
// circuits, single (median) thresholds, 512 patterns, 40-LAC cap on large
// circuits.
func smokeCfg() repro.Config {
	return repro.Config{Out: io.Discard, Scaled: true, Quick: true, Patterns: 512, CapIters: 40}
}

// BenchmarkTableI regenerates the benchmark-information table: circuit
// construction plus technology mapping for the whole suite.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bench := range gen.Suite(true) {
			_ = techmap.Summarise(bench.Graph)
		}
	}
}

// BenchmarkFig4 regenerates the candidate-node-set experiment. The
// reported metric hit_k30 is the average T_30/30 across circuits — the
// paper's claim is that it exceeds 80%.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.Fig4(smokeCfg())
		sum := 0.0
		for _, r := range rows {
			sum += r.Rate[2] // k = 30
		}
		if len(rows) > 0 {
			b.ReportMetric(100*sum/float64(len(rows)), "hit_k30_%")
		}
	}
}

// BenchmarkTableII_Small regenerates the small-circuit MSE comparison.
// speedup_dpsa is mean-runtime(VECBEE l=∞) / mean-runtime(DP-SA) — the
// paper reports 9.0×.
func BenchmarkTableII_Small(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.TableII(smokeCfg(), true)
		reportTableII(b, rows)
	}
}

// BenchmarkTableII_Large regenerates the large-circuit MSE comparison.
// The paper reports DP 21.8× faster than VECBEE(l=∞) without quality loss.
func BenchmarkTableII_Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := repro.TableII(smokeCfg(), false)
		reportTableII(b, rows)
	}
}

func reportTableII(b *testing.B, rows []repro.TableIIRow) {
	b.Helper()
	var rtInf, rtDP, rtDPSA time.Duration
	var adpInf, adpDP float64
	for _, r := range rows {
		rtInf += r.Runtime[0]
		rtDP += r.Runtime[2]
		rtDPSA += r.Runtime[3]
		adpInf += r.ADP[0]
		adpDP += r.ADP[2]
	}
	if rtDP > 0 {
		b.ReportMetric(float64(rtInf)/float64(rtDP), "speedup_dp")
	}
	if rtDPSA > 0 {
		b.ReportMetric(float64(rtInf)/float64(rtDPSA), "speedup_dpsa")
	}
	if n := float64(len(rows)); n > 0 {
		b.ReportMetric(100*(adpDP-adpInf)/n, "adp_dp_minus_inf_pp")
	}
}

// BenchmarkAblationCutUpdate isolates §III-B: incremental disjoint-cut
// repair vs full recomputation over a sequence of LACs. The reported
// speedup_x is fresh/incremental time.
func BenchmarkAblationCutUpdate(b *testing.B) {
	g := gen.MultU(10, 10)
	for i := 0; i < b.N; i++ {
		inc, fresh, avgSv := repro.AblationCutUpdate(g, 20, 1)
		if inc.Time > 0 {
			b.ReportMetric(float64(fresh.Time)/float64(inc.Time), "speedup_x")
		}
		b.ReportMetric(avgSv, "avg_Sv_nodes")
	}
}

// BenchmarkAblationPartialCPM isolates §III-C: the partial CPM over
// N(S_cand) for M=60 vs the full CPM.
func BenchmarkAblationPartialCPM(b *testing.B) {
	g := gen.MultU(10, 10)
	for i := 0; i < b.N; i++ {
		partial, full, closure := repro.AblationPartialCPM(g, 60, 2048, 1)
		if partial.Time > 0 {
			b.ReportMetric(float64(full.Time)/float64(partial.Time), "speedup_x")
		}
		b.ReportMetric(float64(closure), "closure_nodes")
	}
}

// BenchmarkAblationMSweep quantifies the candidate-set-size trade-off
// behind the §III-D self-adaption: DP runtime at M=15 vs M=120.
func BenchmarkAblationMSweep(b *testing.B) {
	bench := gen.SmallSuite(true)[3] // sm9x8
	for i := 0; i < b.N; i++ {
		rows := repro.AblationMSweep(bench, []int{15, 60, 120}, repro.Config{Out: io.Discard, Patterns: 1024})
		if len(rows) == 3 && rows[2].Runtime > 0 {
			b.ReportMetric(float64(rows[0].Runtime)/float64(rows[2].Runtime), "t_M15_over_M120")
		}
	}
}

// BenchmarkTableIII regenerates the AccALS vs DP-SA comparison under ER
// and MED (single-threaded, as in the paper). speedup_med is
// runtime(AccALS)/runtime(DP-SA) under MED — the paper reports 2.1×.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := smokeCfg()
		rows := repro.TableIII(cfg)
		var rtAccER, rtDPER, rtAccMED, rtDPMED time.Duration
		for _, r := range rows {
			rtAccER += r.RTER[0]
			rtDPER += r.RTER[1]
			rtAccMED += r.RTMED[0]
			rtDPMED += r.RTMED[1]
		}
		if rtDPER > 0 {
			b.ReportMetric(float64(rtAccER)/float64(rtDPER), "speedup_er")
		}
		if rtDPMED > 0 {
			b.ReportMetric(float64(rtAccMED)/float64(rtDPMED), "speedup_med")
		}
	}
}
