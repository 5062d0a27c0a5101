package main

import (
	"bytes"
	"fmt"

	"dpals"
	"dpals/internal/aig"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// circuitSpec names one generated input circuit and its recommended PO
// weights (nil: unsigned LSB-first), the same weights the gen suite
// attaches to it.
type circuitSpec struct {
	name  string
	build func() (*aig.Graph, metric.Weights)
}

func plain(name string, build func() *aig.Graph) circuitSpec {
	return circuitSpec{name, func() (*aig.Graph, metric.Weights) { return build(), nil }}
}

// signed weights every output as one two's-complement word.
func signed(name string, build func() *aig.Graph) circuitSpec {
	return circuitSpec{name, func() (*aig.Graph, metric.Weights) {
		g := build()
		return g, metric.TwosComplementWeights(g.NumPOs())
	}}
}

// butterfly weights its four (2w+1)-bit output words independently.
func butterfly(name string, w int) circuitSpec {
	return circuitSpec{name, func() (*aig.Graph, metric.Weights) {
		var ws metric.Weights
		for i := 0; i < 4; i++ {
			ws = append(ws, metric.TwosComplementWeights(2*w+1)...)
		}
		return gen.Butterfly(w), ws
	}}
}

// input is one circuit as the program receives it: parsed back from the
// AIGER text the generator's graph serialises to, with its weights
// reapplied, plus the text itself (the alsd request payload).
type input struct {
	name    string
	circuit *dpals.Circuit
	aiger   string
}

// materialise builds every circuit and round-trips it through AIGER text.
func materialise(specs []circuitSpec) ([]input, error) {
	out := make([]input, 0, len(specs))
	for _, s := range specs {
		g, w := s.build()
		var buf bytes.Buffer
		if err := dpals.FromGraph(g).WriteAIGER(&buf); err != nil {
			return nil, fmt.Errorf("%s: write AIGER: %w", s.name, err)
		}
		text := buf.String()
		c, err := dpals.ReadAIGER(&buf)
		if err != nil {
			return nil, fmt.Errorf("%s: read AIGER: %w", s.name, err)
		}
		if err := c.SetWeights(w); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, input{name: s.name, circuit: c, aiger: text})
	}
	return out, nil
}

// libWorkload is a workload that calls the library directly: every pass
// synthesises each circuit variants times, each time with its own seed,
// with the options opt gives it.
type libWorkload struct {
	circuits []circuitSpec
	quick    []circuitSpec // tiny stand-ins for -quick
	variants int
	opt      func(c *dpals.Circuit) dpals.Options
}

// The workloads. Each library workload stresses a different layer, and
// each is the "bypass" side for the others' layers (see README.md).
var libWorkloads = map[string]libWorkload{
	// The paper's large-circuit regime, and the only multi-threaded
	// workload: vecmul8 is dominated by evaluation and CPM, sqrt by CPM,
	// butterfly by incremental cut repair.
	"large-const": {
		circuits: []circuitSpec{
			plain("vecmul8", func() *aig.Graph { return gen.VecMul(4, 10) }),
			plain("sqrt", func() *aig.Graph { return gen.Sqrt(48) }),
			butterfly("butterfly", 10),
		},
		quick: []circuitSpec{
			plain("vecmul8", func() *aig.Graph { return gen.VecMul(2, 4) }),
			plain("sqrt", func() *aig.Graph { return gen.Sqrt(12) }),
			butterfly("butterfly", 4),
		},
		variants: 1,
		opt: func(c *dpals.Circuit) dpals.Options {
			r := dpals.ReferenceError(c)
			return dpals.Options{Flow: dpals.DPSA, Metric: dpals.MSE, Threshold: r * r,
				UseConstLACs: true, Patterns: 1024, MaxIters: 120, Threads: 2}
		},
	},
	// The paper's small regime: SASIMI substitutions run to the error
	// budget, so warm starts, the evaluation memo and SASIMI scoring
	// dominate. DP rather than DP-SA: DP-SA's self-adaption makes the cost
	// of one circuit swing by a quarter from one seed to the next, which
	// would drown the signal; large-const keeps DP-SA covered.
	"small-sasimi": {
		circuits: []circuitSpec{
			plain("c880", func() *aig.Graph { return gen.ALU(8) }),
			plain("c1908", func() *aig.Graph { return gen.Detector(16) }),
			plain("c3540", func() *aig.Graph { return gen.ALUX(8) }),
			signed("sm9x8", func() *aig.Graph { return gen.MultS(9, 8) }),
		},
		quick: []circuitSpec{
			plain("c880", func() *aig.Graph { return gen.ALU(2) }),
			signed("sm9x8", func() *aig.Graph { return gen.MultS(3, 3) }),
		},
		variants: 3,
		opt: func(c *dpals.Circuit) dpals.Options {
			return dpals.Options{Flow: dpals.DP, Metric: dpals.MED, Threshold: dpals.ReferenceError(c),
				UseSASIMILACs: true, Patterns: 1024, Threads: 1}
		},
	},
	// SAT certification dominates; simulation and evaluation changes
	// should leave this workload flat. 4096 patterns, not 512: with fewer,
	// whether the sampled worst case misses the true one, and a
	// certification fails and rolls back, depends on the seed, which can
	// double a circuit's time; at 4096 almost no seed needs a rollback.
	"wce-cert": {
		circuits: []circuitSpec{
			plain("adder8", func() *aig.Graph { return gen.Adder(8) }),
			plain("mult4x4", func() *aig.Graph { return gen.MultU(4, 4) }),
			plain("square5", func() *aig.Graph { return gen.Square(5) }),
			plain("mac4", func() *aig.Graph { return gen.MAC(4) }),
			plain("mult5x5", func() *aig.Graph { return gen.MultU(5, 5) }),
		},
		quick: []circuitSpec{
			plain("adder8", func() *aig.Graph { return gen.Adder(6) }),
			plain("mult4x4", func() *aig.Graph { return gen.MultU(3, 3) }),
		},
		variants: 3,
		opt: func(c *dpals.Circuit) dpals.Options {
			return dpals.Options{Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 32, UseConstLACs: true,
				Patterns: 4096, CertConflictLimit: 200000, MaxIters: 50, Threads: 1}
		},
	},
}

// alsdCircuits are the circuits the alsd-mixed clients cycle over.
var alsdCircuits = []circuitSpec{
	plain("mult4x4", func() *aig.Graph { return gen.MultU(4, 4) }),
	plain("mult5x5", func() *aig.Graph { return gen.MultU(5, 5) }),
	plain("adder8", func() *aig.Graph { return gen.Adder(8) }),
}

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{"large-const", "small-sasimi", "wce-cert", "alsd-mixed"}

// allCircuitNames lists every circuit of every workload, in a fixed order:
// the job_s_p50.<circuit> rows.
func allCircuitNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, w := range workloadNames {
		specs := alsdCircuits
		if lw, ok := libWorkloads[w]; ok {
			specs = lw.circuits
		}
		for _, s := range specs {
			if !seen[s.name] {
				seen[s.name] = true
				names = append(names, s.name)
			}
		}
	}
	return names
}
