// Flow comparison on a larger circuit: run the conventional single-LAC
// flow, the dual-phase flow (DP) and its self-adaptive variant (DP-SA) on
// the same budget, and show where the dual-phase framework wins — far
// fewer comprehensive analyses at equal circuit quality — together with
// the per-step work profile the self-adaption tunes from.
package main

import (
	"fmt"
	"log"
	"time"

	"dpals"
)

func main() {
	// A scaled EPFL-style arithmetic block: 4-dimensional dot product.
	ckt := dpals.NewVecMul(4, 8)
	fmt.Printf("vecmul: %d gates, depth %d\n\n", ckt.NumGates(), ckt.Depth())
	R := dpals.ReferenceError(ckt)
	budget := R * R

	fmt.Printf("%-14s %8s %8s %8s %7s %7s %10s   %s\n",
		"flow", "gates", "ADP", "error", "compr", "incr", "runtime", "step profile (cuts/CPM/eval)")
	var convTime time.Duration
	for _, flow := range []dpals.Flow{dpals.Conventional, dpals.DP, dpals.DPSA} {
		res, err := dpals.Approximate(ckt, dpals.Options{
			Flow:      flow,
			Metric:    dpals.MSE,
			Threshold: budget,
			Patterns:  4096,
			Threads:   4,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := res.Stats.CutWork + res.Stats.CPMWork + res.Stats.EvalWork
		prof := "-"
		if total > 0 {
			prof = fmt.Sprintf("%2.0f%% / %2.0f%% / %2.0f%%",
				100*float64(res.Stats.CutWork)/float64(total),
				100*float64(res.Stats.CPMWork)/float64(total),
				100*float64(res.Stats.EvalWork)/float64(total))
		}
		fmt.Printf("%-14v %8d %7.1f%% %8.3g %7d %7d %10v   %s\n",
			flow, res.Circuit.NumGates(), 100*res.ADPRatio, res.Error,
			res.Stats.Comprehensive, res.Stats.Incremental,
			res.Stats.Runtime.Round(time.Millisecond), prof)
		if flow == dpals.Conventional {
			convTime = res.Stats.Runtime
		} else if convTime > 0 {
			fmt.Printf("%-14s ↳ %.1f× faster than the conventional flow\n", "",
				float64(convTime)/float64(res.Stats.Runtime))
		}
	}
}
