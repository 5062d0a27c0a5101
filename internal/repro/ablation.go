package repro

import (
	"context"
	"time"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/cpm"
	"dpals/internal/cut"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/oracle"
	"dpals/internal/sim"
	"dpals/internal/techmap"
)

// AblationSide is one side of an isolated ablation: its wall time and the
// deterministic work it performed, in the unit of the matching Stats
// counter (CutWork for cuts, CPMWork for CPM builds).
type AblationSide struct {
	Time time.Duration
	Work int64
}

// AblationCutUpdate measures the paper's §III-B claim in isolation: the
// cost of repairing disjoint cuts incrementally after a LAC versus
// recomputing them from scratch, summed over a sequence of constant-LAC
// replacements on the given circuit. It returns the incremental and fresh
// sides and the average |S_v| (nodes actually recomputed).
func AblationCutUpdate(g *aig.Graph, steps int, seed int64) (inc, fresh AblationSide, avgSv float64) {
	work := g.Sweep()
	cuts, _ := cut.NewSet(context.Background(), work, 1)
	svSum := 0
	done := 0
	for i := 0; i < steps; i++ {
		// Replace a deterministic pseudo-random live AND node by constant 0
		// (seed-stirred stride over the live node list).
		var live []int32
		for w := int32(1); w <= work.MaxVar(); w++ {
			if work.IsAnd(w) {
				live = append(live, w)
			}
		}
		if len(live) == 0 {
			break
		}
		v := live[int(uint64(i)*2654435761+uint64(seed))%len(live)]
		cs := work.ReplaceWithLit(v, aig.False)

		w0 := cuts.Work()
		t0 := time.Now()
		sv := cuts.UpdateAfter(cs)
		inc.Time += time.Since(t0)
		inc.Work += cuts.Work() - w0
		svSum += len(sv)

		t1 := time.Now()
		rebuilt, _ := cut.NewSet(context.Background(), work, 1)
		fresh.Time += time.Since(t1)
		fresh.Work += rebuilt.Work()
		done++
	}
	if done > 0 {
		avgSv = float64(svSum) / float64(done)
	}
	return inc, fresh, avgSv
}

// AblationPartialCPM measures §III-C in isolation: building the CPM
// restricted to N(S_cand) for a candidate set of size m versus building
// the full CPM, on one analysis of the given circuit. It returns the two
// sides and the closure size |N(S_cand)|.
func AblationPartialCPM(g *aig.Graph, m int, patterns int, seed int64) (partial, full AblationSide, closure int) {
	work := g.Sweep()
	s := sim.New(work, sim.Options{Patterns: patterns, Seed: seed})
	cuts, _ := cut.NewSet(context.Background(), work, 1)

	var all []int32
	for _, v := range work.Topo() {
		if work.IsAnd(v) {
			all = append(all, v)
		}
	}
	// Candidate set: the m live AND nodes closest to the inputs (low ids),
	// a deterministic stand-in for the top-M error ranking.
	targets := all[:min(m, len(all))]

	// Each side is one fresh cache's build: the closure of its targets.
	build := func(targets []int32) (AblationSide, int) {
		t0 := time.Now()
		upd, _ := cpm.NewCache(work, s).Rows(context.Background(), cuts, targets, 1)
		return AblationSide{Time: time.Since(t0), Work: upd.Work}, upd.Needed
	}
	partial, closure = build(targets)
	full, _ = build(all)
	return partial, full, closure
}

// AblationMRow is one data point of the candidate-set-size sweep.
type AblationMRow struct {
	M       int
	Runtime time.Duration
	ADP     float64
	Applied int
}

// AblationMSweep runs the DP flow at several fixed M values (N = M/3) on
// one circuit, quantifying the M/runtime/quality trade-off behind §III-D's
// first self-adaption technique.
func AblationMSweep(b gen.Benchmark, ms []int, cfg Config) []AblationMRow {
	thr := metric.Thresholds(metric.MSE, b.Graph.NumPOs())[1]
	var rows []AblationMRow
	for _, m := range ms {
		opt := core.Options{
			Flow: core.FlowDP, Metric: metric.MSE, Threshold: thr,
			Patterns: cfg.patterns(), Seed: cfg.seed(), Threads: cfg.threads(),
			M: m, MaxIters: cfg.CapIters,
		}
		res, err := core.Run(context.Background(), b.Graph, opt, core.Hooks{})
		if err != nil {
			panic("ablation: " + err.Error())
		}
		rows = append(rows, AblationMRow{
			M: m, Runtime: res.Stats.Runtime, Applied: res.Stats.Applied,
			ADP: adpRatio(b.Graph, res.Graph),
		})
		cfg.printf("M=%-4d runtime=%-12v applied=%-4d ADP=%.1f%%\n", m, rnd(res.Stats.Runtime), res.Stats.Applied, 100*rows[len(rows)-1].ADP)
	}
	return rows
}

// AblationPatterns sweeps the Monte-Carlo pattern count for one circuit
// and reports the achieved training error versus an independent
// high-sample validation error, quantifying the sampling accuracy
// trade-off.
type AblationPatternsRow struct {
	Patterns   int
	TrainErr   float64
	ValidErr   float64
	Runtime    time.Duration
	Violated   bool // validation error exceeded the budget
	Threshold  float64
	ADP        float64
	AppliedLAC int
}

// AblationPatternsSweep runs DP-SA at several pattern counts under the
// median MSE threshold and validates each result on 1<<16 fresh samples
// (every input, when the circuit has at most 16). A count ≥ 2^inputs
// trains on every input, so its training error is exact.
func AblationPatternsSweep(b gen.Benchmark, counts []int, cfg Config) []AblationPatternsRow {
	thr := metric.Thresholds(metric.MSE, b.Graph.NumPOs())[1]
	var rows []AblationPatternsRow
	for _, p := range counts {
		opt := core.Options{
			Flow: core.FlowDPSA, Metric: metric.MSE, Threshold: thr,
			Patterns: p, Seed: cfg.seed(), Threads: cfg.threads(), MaxIters: cfg.CapIters,
		}
		res, err := core.Run(context.Background(), b.Graph, opt, core.Hooks{})
		if err != nil {
			panic("ablation: " + err.Error())
		}
		valid, err := oracle.SampledError(b.Graph, res.Graph, metric.MSE, nil,
			sim.Options{Patterns: 1 << 16, Seed: cfg.seed() + 12345})
		if err != nil {
			panic("ablation: " + err.Error())
		}
		rows = append(rows, AblationPatternsRow{
			Patterns: p, TrainErr: res.Error, ValidErr: valid,
			Runtime: res.Stats.Runtime, Violated: valid > thr,
			Threshold: thr, ADP: adpRatio(b.Graph, res.Graph), AppliedLAC: res.Stats.Applied,
		})
		cfg.printf("patterns=%-6d train=%-10.4g valid=%-10.4g (budget %.4g) runtime=%v\n",
			p, res.Error, valid, thr, rnd(res.Stats.Runtime))
	}
	return rows
}

func adpRatio(orig, approx *aig.Graph) float64 {
	return techmap.ADPRatio(techmap.Map(approx), techmap.Map(orig))
}
