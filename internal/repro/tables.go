package repro

import (
	"time"

	"dpals/internal/core"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/techmap"
)

// TableI prints the benchmark information table (paper Table I): name,
// I/O counts, function, AIG node count, mapped area and delay.
func TableI(cfg Config) {
	cfg.printf("TABLE I — BENCHMARK CIRCUIT INFORMATION (scaled=%v)\n", cfg.Scaled)
	cfg.printf("%-10s %9s  %-38s %6s %10s %9s\n", "Circuit", "#I/O", "Function", "#Nd", "Area", "Delay")
	for _, b := range gen.Suite(cfg.Scaled) {
		r := techmap.Summarise(b.Graph)
		cfg.printf("%-10s %4d/%-4d  %-38s %6d %10.2f %9.2f\n",
			b.PaperName, b.Graph.NumPIs(), b.Graph.NumPOs(), b.Function, r.Ands, r.Area, r.Delay)
	}
}

// TableIIRow is one circuit's result in the Table II comparison.
type TableIIRow struct {
	Circuit string
	ADP     [4]float64       // VECBEE l=∞, VECBEE l=1, DP, DP-SA
	Runtime [4]time.Duration // same order
}

var tableIIMethods = [4]string{"l=inf", "l=1", "DP", "DP-SA"}

// TableII runs the paper's Table II comparison under the MSE constraint:
// small circuits with SASIMI LACs averaged over three thresholds, large
// circuits with constant LACs at the median threshold. It returns the rows
// (small first) and prints them.
func TableII(cfg Config, small bool) []TableIIRow {
	var suite []gen.Benchmark
	if small {
		suite = gen.SmallSuite(cfg.Scaled)
	} else {
		suite = gen.LargeSuite(cfg.Scaled)
	}
	if cfg.Quick {
		suite = quickSubset(suite)
	}
	group := "LARGE"
	if small {
		group = "SMALL"
	}
	cfg.printf("TABLE II (%s) — VECBEE(l=∞), VECBEE(l=1), DP, DP-SA under MSE (patterns=%d threads=%d scaled=%v)\n",
		group, cfg.patterns(), cfg.threads(), cfg.Scaled)
	cfg.printf("%-10s | %8s %8s %8s %8s | %10s %10s %10s %10s\n", "Circuit",
		"ADP:inf", "ADP:l=1", "ADP:DP", "ADP:DPSA", "t:inf", "t:l=1", "t:DP", "t:DPSA")

	var rows []TableIIRow
	var sumADP [4]float64
	var sumRT [4]time.Duration
	for _, b := range suite {
		var thrs []float64
		if small {
			thrs = metric.Thresholds(metric.MSE, b.Graph.NumPOs())
		} else {
			thrs = metric.Thresholds(metric.MSE, b.Graph.NumPOs())[1:2] // median
			thrs[0] = adjustLarge(b.PaperName, thrs[0])
		}
		if cfg.Quick || cfg.MedianOnly {
			thrs = thrs[len(thrs)/2 : len(thrs)/2+1]
		}
		row := TableIIRow{Circuit: b.PaperName}
		runs := []struct {
			flow  core.Flow
			depth int
		}{
			{core.FlowVECBEE, 0},
			{core.FlowVECBEE, 1},
			{core.FlowDP, 0},
			{core.FlowDPSA, 0},
		}
		for i, r := range runs {
			row.ADP[i], row.Runtime[i] = avgOver(b, r.flow, metric.MSE, thrs, small, cfg, r.depth)
			sumADP[i] += row.ADP[i]
			sumRT[i] += row.Runtime[i]
		}
		rows = append(rows, row)
		cfg.printf("%-10s | %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %10s %10s %10s %10s\n",
			row.Circuit, 100*row.ADP[0], 100*row.ADP[1], 100*row.ADP[2], 100*row.ADP[3],
			rnd(row.Runtime[0]), rnd(row.Runtime[1]), rnd(row.Runtime[2]), rnd(row.Runtime[3]))
	}
	n := float64(len(rows))
	if n > 0 {
		cfg.printf("%-10s | %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %10s %10s %10s %10s\n", "Avg",
			100*sumADP[0]/n, 100*sumADP[1]/n, 100*sumADP[2]/n, 100*sumADP[3]/n,
			rnd(sumRT[0]/time.Duration(len(rows))), rnd(sumRT[1]/time.Duration(len(rows))),
			rnd(sumRT[2]/time.Duration(len(rows))), rnd(sumRT[3]/time.Duration(len(rows))))
		if sumRT[2] > 0 {
			cfg.printf("speedup DP vs VECBEE(l=∞): %.1f×;  DP vs VECBEE(l=1): %.1f×\n",
				float64(sumRT[0])/float64(sumRT[2]), float64(sumRT[1])/float64(sumRT[2]))
		}
	}
	return rows
}

// TableIIIRow is one circuit's result in the AccALS vs DP-SA comparison.
type TableIIIRow struct {
	Circuit string
	// Indices: 0 = AccALS, 1 = DP-SA.
	ADPER  [2]float64
	RTER   [2]time.Duration
	ADPMED [2]float64
	RTMED  [2]time.Duration
}

// TableIII runs the paper's Table III: AccALS vs DP-SA under ER and MED,
// single-threaded (AccALS does not support multi-threading in the paper).
func TableIII(cfg Config) []TableIIIRow {
	cfg.Threads = 1
	suite := gen.Suite(cfg.Scaled)
	if cfg.Quick {
		suite = quickSubset(suite)
	}
	cfg.printf("TABLE III — AccALS vs DP-SA under ER and MED (single thread, patterns=%d scaled=%v)\n",
		cfg.patterns(), cfg.Scaled)
	cfg.printf("%-10s | %9s %9s %10s %10s | %9s %9s %10s %10s\n", "Circuit",
		"ER:Acc", "ER:DPSA", "t:Acc", "t:DPSA", "MED:Acc", "MED:DPSA", "t:Acc", "t:DPSA")

	var rows []TableIIIRow
	var sum TableIIIRow
	for _, b := range suite {
		row := TableIIIRow{Circuit: b.PaperName}
		for mi, kind := range []metric.Kind{metric.ER, metric.MED} {
			thrs := metric.Thresholds(kind, b.Graph.NumPOs())
			if !b.Small {
				thrs = thrs[1:2]
				thrs[0] = adjustLarge(b.PaperName, thrs[0])
			}
			if cfg.Quick || cfg.MedianOnly {
				thrs = thrs[len(thrs)/2 : len(thrs)/2+1]
			}
			for fi, flow := range []core.Flow{core.FlowAccALS, core.FlowDPSA} {
				adp, rt := avgOver(b, flow, kind, thrs, b.Small, cfg, 0)
				if mi == 0 {
					row.ADPER[fi], row.RTER[fi] = adp, rt
				} else {
					row.ADPMED[fi], row.RTMED[fi] = adp, rt
				}
			}
		}
		rows = append(rows, row)
		for i := 0; i < 2; i++ {
			sum.ADPER[i] += row.ADPER[i]
			sum.RTER[i] += row.RTER[i]
			sum.ADPMED[i] += row.ADPMED[i]
			sum.RTMED[i] += row.RTMED[i]
		}
		cfg.printf("%-10s | %8.1f%% %8.1f%% %10s %10s | %8.1f%% %8.1f%% %10s %10s\n",
			row.Circuit, 100*row.ADPER[0], 100*row.ADPER[1], rnd(row.RTER[0]), rnd(row.RTER[1]),
			100*row.ADPMED[0], 100*row.ADPMED[1], rnd(row.RTMED[0]), rnd(row.RTMED[1]))
	}
	if n := len(rows); n > 0 {
		cfg.printf("%-10s | %8.1f%% %8.1f%% %10s %10s | %8.1f%% %8.1f%% %10s %10s\n", "Avg",
			100*sum.ADPER[0]/float64(n), 100*sum.ADPER[1]/float64(n),
			rnd(sum.RTER[0]/time.Duration(n)), rnd(sum.RTER[1]/time.Duration(n)),
			100*sum.ADPMED[0]/float64(n), 100*sum.ADPMED[1]/float64(n),
			rnd(sum.RTMED[0]/time.Duration(n)), rnd(sum.RTMED[1]/time.Duration(n)))
		if sum.RTER[1] > 0 && sum.RTMED[1] > 0 {
			cfg.printf("speedup DP-SA vs AccALS: ER %.1f×, MED %.1f×\n",
				float64(sum.RTER[0])/float64(sum.RTER[1]), float64(sum.RTMED[0])/float64(sum.RTMED[1]))
		}
	}
	return rows
}

func quickSubset(suite []gen.Benchmark) []gen.Benchmark {
	keep := map[string]bool{"c880": true, "sm9x8": true, "adder": true, "vecmul8": true, "butterfly": true}
	var out []gen.Benchmark
	for _, b := range suite {
		if keep[b.PaperName] {
			out = append(out, b)
		}
	}
	return out
}

func rnd(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
