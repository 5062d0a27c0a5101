package gen

import (
	"slices"

	"dpals/internal/aig"
	"dpals/internal/metric"
)

// Benchmark describes one row of the paper's Table I: the paper's circuit
// name, the generated stand-in, and the recommended PO weighting for the
// numeric error metrics.
type Benchmark struct {
	PaperName string // row name in the paper's tables
	Function  string // description, as in Table I
	Graph     *aig.Graph
	Weights   []float64 // nil: unsigned LSB-first over all POs
	Small     bool      // paper's grouping (small < 4000 AIG nodes)
}

// twosComplement weights the POs of g as one two's-complement word.
func twosComplement(g *aig.Graph) []float64 { return metric.TwosComplementWeights(g.NumPOs()) }

// SmallSuite returns the small-circuit group. With scaled=false the
// generators use the paper's bit-widths; with scaled=true they are reduced
// so the whole experiment suite runs on a laptop in minutes while keeping
// every circuit in the same role (see EXPERIMENTS.md).
func SmallSuite(scaled bool) []Benchmark {
	type cfg struct {
		paper, fn string
		build     func() *aig.Graph
		weights   func(g *aig.Graph) []float64
	}
	var cs []cfg
	if scaled {
		cs = []cfg{
			{"c880", "8-bit ALU", func() *aig.Graph { return ALU(8) }, nil},
			{"c1908", "16-bit detector", func() *aig.Graph { return Detector(16) }, nil},
			{"c3540", "8-bit ALU", func() *aig.Graph { return ALUX(8) }, nil},
			{"sm9x8", "9bit×8bit signed multiplier", func() *aig.Graph { return MultS(9, 8) }, twosComplement},
			{"sm18x14", "12bit×10bit signed multiplier (scaled)", func() *aig.Graph { return MultS(12, 10) }, twosComplement},
			{"mult16", "12-bit unsigned multiplier (scaled)", func() *aig.Graph { return MultU(12, 12) }, nil},
			{"adder", "48-bit adder (scaled)", func() *aig.Graph { return Adder(48) }, nil},
		}
	} else {
		cs = []cfg{
			{"c880", "8-bit ALU", func() *aig.Graph { return ALU(8) }, nil},
			{"c1908", "16-bit detector", func() *aig.Graph { return Detector(16) }, nil},
			{"c3540", "8-bit ALU", func() *aig.Graph { return ALUX(8) }, nil},
			{"sm9x8", "9bit×8bit signed multiplier", func() *aig.Graph { return MultS(9, 8) }, twosComplement},
			{"sm18x14", "18bit×14bit signed multiplier", func() *aig.Graph { return MultS(18, 14) }, twosComplement},
			{"mult16", "16-bit unsigned multiplier", func() *aig.Graph { return MultU(16, 16) }, nil},
			{"adder", "128-bit adder", func() *aig.Graph { return Adder(128) }, nil},
		}
	}
	out := make([]Benchmark, 0, len(cs))
	for _, c := range cs {
		g := c.build()
		b := Benchmark{PaperName: c.paper, Function: c.fn, Graph: g, Small: true}
		if c.weights != nil {
			b.Weights = c.weights(g)
		}
		out = append(out, b)
	}
	return out
}

// LargeSuite returns the large-circuit group (constant LACs in the paper's
// experiments).
func LargeSuite(scaled bool) []Benchmark {
	type cfg struct {
		paper, fn string
		build     func() *aig.Graph
		weights   func(g *aig.Graph) []float64
	}
	var cs []cfg
	if scaled {
		cs = []cfg{
			{"sin", "12-bit sin unit (scaled)", func() *aig.Graph { return Sin(12) }, nil},
			{"square", "24-bit square unit (scaled)", func() *aig.Graph { return Square(24) }, nil},
			{"sqrt", "48-bit square root unit (scaled)", func() *aig.Graph { return Sqrt(48) }, nil},
			{"log2", "12-bit log2 unit (scaled)", func() *aig.Graph { return Log2(12, 6) }, nil},
			{"butterfly", "Radix-2 butterfly (w=10, scaled)", func() *aig.Graph { return Butterfly(10) },
				func(g *aig.Graph) []float64 { return ButterflyWeights(10) }},
			{"vecmul8", "4-dim vector multiplier (w=10, scaled)", func() *aig.Graph { return VecMul(4, 10) }, nil},
		}
	} else {
		cs = []cfg{
			{"sin", "24-bit sin unit", func() *aig.Graph { return Sin(24) }, nil},
			{"square", "64-bit square unit", func() *aig.Graph { return Square(64) }, nil},
			{"sqrt", "128-bit square root unit", func() *aig.Graph { return Sqrt(128) }, nil},
			{"log2", "32-bit log2 unit", func() *aig.Graph { return Log2(32, 16) }, nil},
			{"butterfly", "Radix-2 butterfly (w=16)", func() *aig.Graph { return Butterfly(16) },
				func(g *aig.Graph) []float64 { return ButterflyWeights(16) }},
			{"vecmul8", "8-dim vector multiplier (w=16)", func() *aig.Graph { return VecMul(8, 16) }, nil},
		}
	}
	out := make([]Benchmark, 0, len(cs))
	for _, c := range cs {
		g := c.build()
		b := Benchmark{PaperName: c.paper, Function: c.fn, Graph: g, Small: false}
		if c.weights != nil {
			b.Weights = c.weights(g)
		}
		out = append(out, b)
	}
	return out
}

// ButterflyWeights weights the four (2w+1)-bit output words of
// Butterfly(w) independently, each as a two's-complement number.
func ButterflyWeights(w int) metric.Weights {
	word := metric.TwosComplementWeights(2*w + 1)
	return slices.Concat(word, word, word, word)
}

// Suite returns the full benchmark set, small group first.
func Suite(scaled bool) []Benchmark {
	return append(SmallSuite(scaled), LargeSuite(scaled)...)
}
