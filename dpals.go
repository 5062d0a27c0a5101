// Package dpals is an approximate logic synthesis (ALS) library built
// around the dual-phase iterative framework of "Efficient Approximate
// Logic Synthesis with Dual-Phase Iterative Framework" (DATE 2025).
//
// Given a combinational circuit and a statistical error budget (error
// rate, mean squared error, or mean error distance), dpals iteratively
// applies local approximate changes — constant replacements and SASIMI
// signal substitutions — to shrink the circuit while keeping the error
// under the budget. The dual-phase engine (flows DP and DPSA) performs one
// comprehensive error analysis per round and then cheap incremental
// analyses restricted to a candidate node set, which is what makes large
// circuits tractable; the conventional, VECBEE and AccALS flows are
// provided as baselines.
//
// Quick start:
//
//	c := dpals.NewMultiplier(8, 8, false)
//	res, err := dpals.Approximate(c, dpals.Options{
//	    Flow:      dpals.DPSA,
//	    Metric:    dpals.MSE,
//	    Threshold: 1e4,
//	})
//	// res.Circuit is the approximate circuit; res.ADPRatio its
//	// area-delay product relative to the original.
package dpals

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"dpals/internal/aig"
	"dpals/internal/aiger"
	"dpals/internal/blif"
	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/oracle"
	"dpals/internal/techmap"
	"dpals/internal/verilog"
)

// Metric selects the error metric.
type Metric = metric.Kind

// Supported error metrics.
const (
	// ER is the error rate: the fraction of input patterns for which any
	// output bit differs from the exact circuit.
	ER = metric.ER
	// MSE is the mean squared error of the numeric output value.
	MSE = metric.MSE
	// MED is the mean error distance (mean absolute numeric deviation).
	MED = metric.MED
	// MHD is the mean Hamming distance: the average number of output bits
	// that differ from the exact circuit per pattern.
	MHD = metric.MHD
	// WCE is the worst-case error: the maximum absolute numeric deviation
	// over ALL inputs, with outputs read as unsigned LSB-first integers
	// (Weights must be nil, ≤ 62 outputs). Unlike the statistical metrics
	// above, WCE runs are certified: every returned circuit carries a
	// proven bound in Stats.CertifiedWCE ≤ Options.WCEBound — by
	// enumeration when the patterns cover the input space, else by SAT.
	WCE = metric.WCE
)

// Flow selects the synthesis algorithm.
type Flow = core.Flow

// Supported flows.
const (
	// Conventional: one LAC per iteration, full (comprehensive) error
	// analysis every iteration — the enhanced-VECBEE baseline.
	Conventional = core.FlowConventional
	// VECBEE: the original one-cut VECBEE baseline; see Options.DepthLimit.
	VECBEE = core.FlowVECBEE
	// AccALS: multiple LACs per iteration with validation and rollback.
	AccALS = core.FlowAccALS
	// DP: the dual-phase framework (the paper's contribution).
	DP = core.FlowDP
	// DPSA: DP plus the two self-adaption techniques.
	DPSA = core.FlowDPSA
)

// ParseFlow parses a flow name as accepted by the command-line tools and
// the alsd server: "conventional", "vecbee", "accals", "dp", "dpsa" (or
// "dp-sa"), case-insensitive. The empty string selects DPSA.
func ParseFlow(name string) (Flow, error) {
	switch strings.ToLower(name) {
	case "conventional":
		return Conventional, nil
	case "vecbee":
		return VECBEE, nil
	case "accals":
		return AccALS, nil
	case "dp":
		return DP, nil
	case "dpsa", "dp-sa", "":
		return DPSA, nil
	}
	return 0, fmt.Errorf("dpals: unknown flow %q", name)
}

// ParseMetric parses a metric name: "er", "mse", "med", "mhd", "wce",
// case-insensitive. The empty string selects ER.
func ParseMetric(name string) (Metric, error) {
	switch strings.ToLower(name) {
	case "er", "":
		return ER, nil
	case "mse":
		return MSE, nil
	case "med":
		return MED, nil
	case "mhd":
		return MHD, nil
	case "wce":
		return WCE, nil
	}
	return 0, fmt.Errorf("dpals: unknown metric %q", name)
}

// Circuit is an immutable combinational circuit handle.
//
// A Circuit is safe for concurrent use once built: Approximate, the
// Measure* helpers, the structural accessors and the Write* exporters all
// operate on a private snapshot of the graph, so any number of goroutines
// may share one Circuit — the steady state of a synthesis server running
// many jobs against one uploaded circuit. Only SetWeights mutates the
// handle and must not race with readers.
type Circuit struct {
	g       *aig.Graph
	weights []float64 // recommended PO weights (nil: unsigned)
}

// snap returns a private clone of the underlying graph. Graph traversals
// (Topo, Levels, mark-based walks) memoise state inside the graph they run
// on, so every read path that triggers one — mapping, depth, export,
// simulation, synthesis — works on a snapshot instead of the shared graph;
// Clone itself only reads the receiver.
func (c *Circuit) snap() *aig.Graph { return c.g.Clone() }

// Name returns the circuit's name.
func (c *Circuit) Name() string { return c.g.Name }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return c.g.NumPIs() }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return c.g.NumPOs() }

// NumGates returns the number of AND gates in the AIG (the paper's #Nd).
func (c *Circuit) NumGates() int { return c.g.NumAnds() }

// Depth returns the logic depth in AND levels.
func (c *Circuit) Depth() int { return int(c.snap().Depth()) }

// Weights returns the recommended numeric PO weights, or nil for plain
// unsigned LSB-first interpretation.
func (c *Circuit) Weights() []float64 { return c.weights }

// SetWeights overrides the numeric PO weights used by MSE/MED. A non-nil
// w must have exactly one finite weight per primary output; nil restores the
// plain unsigned LSB-first interpretation. The slice is copied, so the
// caller may reuse it.
func (c *Circuit) SetWeights(w []float64) error {
	if w == nil {
		c.weights = nil
		return nil
	}
	if len(w) != c.NumOutputs() {
		return fmt.Errorf("dpals: %d weights for %d outputs", len(w), c.NumOutputs())
	}
	for _, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("dpals: output weight %v is not finite", x)
		}
	}
	c.weights = append([]float64(nil), w...)
	return nil
}

// Area returns the mapped cell area under the built-in generic library.
func (c *Circuit) Area() float64 { return techmap.Map(c.snap()).Area }

// Delay returns the mapped critical-path delay under the built-in library.
func (c *Circuit) Delay() float64 { return techmap.Map(c.snap()).Delay }

// ADP returns the area-delay product under the built-in library.
func (c *Circuit) ADP() float64 { return techmap.Map(c.snap()).ADP() }

// WriteBLIF writes the circuit in BLIF format.
func (c *Circuit) WriteBLIF(w io.Writer) error { return blif.Write(w, c.snap()) }

// WriteAIGER writes the circuit in ASCII AIGER format.
func (c *Circuit) WriteAIGER(w io.Writer) error { return aiger.Write(w, c.snap()) }

// WriteAIGERBinary writes the circuit in binary AIGER format.
func (c *Circuit) WriteAIGERBinary(w io.Writer) error { return aiger.WriteBinary(w, c.snap()) }

// WriteVerilog writes the circuit as a gate-level structural Verilog
// module.
func (c *Circuit) WriteVerilog(w io.Writer) error { return verilog.Write(w, c.snap()) }

// String summarises the circuit.
func (c *Circuit) String() string { return c.g.String() }

// Graph exposes the underlying AIG for advanced use within this module.
func (c *Circuit) Graph() *aig.Graph { return c.g }

// FromGraph wraps an existing AIG as a Circuit.
func FromGraph(g *aig.Graph) *Circuit { return &Circuit{g: g} }

// ReadBLIF parses a combinational BLIF model.
func ReadBLIF(r io.Reader) (*Circuit, error) {
	g, err := blif.Read(r)
	if err != nil {
		return nil, err
	}
	return &Circuit{g: g}, nil
}

// ReadAIGER parses an AIGER model, ASCII (aag) or binary (aig).
func ReadAIGER(r io.Reader) (*Circuit, error) {
	g, err := aiger.Read(r)
	if err != nil {
		return nil, err
	}
	return &Circuit{g: g}, nil
}

// ReadCircuit parses a circuit in any supported input format, chosen by
// its header rather than a file name: "aag " or "aig " starts an AIGER
// model, anything else is read as BLIF.
func ReadCircuit(r io.Reader) (*Circuit, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("aag ")) || bytes.HasPrefix(data, []byte("aig ")) {
		return ReadAIGER(bytes.NewReader(data))
	}
	return ReadBLIF(bytes.NewReader(data))
}

// Generators ----------------------------------------------------------------

// NewAdder returns an n-bit ripple adder (2n inputs, n+1 outputs).
func NewAdder(n int) *Circuit { return &Circuit{g: gen.Adder(n)} }

// NewMultiplier returns an n×m multiplier; signed selects two's-complement
// semantics and sets matching output weights.
func NewMultiplier(n, m int, signed bool) *Circuit {
	if signed {
		g := gen.MultS(n, m)
		return &Circuit{g: g, weights: metric.TwosComplementWeights(g.NumPOs())}
	}
	return &Circuit{g: gen.MultU(n, m)}
}

// NewALU returns a w-bit ALU with flags.
func NewALU(w int) *Circuit { return &Circuit{g: gen.ALU(w)} }

// NewSqrt returns an n-bit integer square-root unit.
func NewSqrt(n int) *Circuit { return &Circuit{g: gen.Sqrt(n)} }

// NewSquare returns an n-bit squaring unit.
func NewSquare(n int) *Circuit { return &Circuit{g: gen.Square(n)} }

// NewSin returns a w-bit fixed-point sine unit (CORDIC).
func NewSin(w int) *Circuit { return &Circuit{g: gen.Sin(w)} }

// NewLog2 returns a log2 unit with n input bits and f fraction bits.
func NewLog2(n, f int) *Circuit { return &Circuit{g: gen.Log2(n, f)} }

// NewButterfly returns a radix-2 FFT butterfly on w-bit complex operands.
func NewButterfly(w int) *Circuit {
	return &Circuit{g: gen.Butterfly(w), weights: gen.ButterflyWeights(w)}
}

// NewVecMul returns a d-dimensional dot-product unit on w-bit operands.
func NewVecMul(d, w int) *Circuit { return &Circuit{g: gen.VecMul(d, w)} }

// NewKoggeStoneAdder returns an n-bit parallel-prefix adder (same function
// as NewAdder, logarithmic depth).
func NewKoggeStoneAdder(n int) *Circuit { return &Circuit{g: gen.KoggeStoneAdder(n)} }

// NewWallaceMultiplier returns an n×m unsigned multiplier with Wallace-tree
// reduction (same function as NewMultiplier(n, m, false)).
func NewWallaceMultiplier(n, m int) *Circuit { return &Circuit{g: gen.WallaceMultiplier(n, m)} }

// Benchmark is one circuit of the paper's Table I (or its stand-in).
type Benchmark struct {
	Name     string // paper row name
	Function string
	Circuit  *Circuit
	Small    bool
}

// BenchmarkSuite returns the paper's benchmark set. scaled=true reduces
// bit-widths so the full experiment suite runs in minutes (see
// EXPERIMENTS.md for the mapping).
func BenchmarkSuite(scaled bool) []Benchmark {
	var out []Benchmark
	for _, b := range gen.Suite(scaled) {
		out = append(out, Benchmark{
			Name:     b.PaperName,
			Function: b.Function,
			Circuit:  &Circuit{g: b.Graph, weights: b.Weights},
			Small:    b.Small,
		})
	}
	return out
}

// Seed handling: the zero value of Options.Seed is an alias for
// DefaultSeed, resolved once by Options.Resolved, so Seed: 0 and
// Seed: DefaultSeed return bit-identical results.
const (
	// UseDefaultSeed is the zero value of Options.Seed: an alias for
	// DefaultSeed, not a seed of its own.
	UseDefaultSeed = core.UseDefaultSeed
	// DefaultSeed is the simulation seed an unset (zero) Options.Seed
	// resolves to.
	DefaultSeed = core.DefaultSeed
)

// Options configures Approximate. Zero values select sensible defaults
// (8192 patterns, seed DefaultSeed, constant LACs, all CPUs), filled in by
// Options.Resolved; Options.Validate checks the options against a circuit.
// It is the engine's own options type, so every field is documented once,
// on core.Options. Nil Weights use the circuit's recommendation.
type Options = core.Options

// StopReason tells why a synthesis run ended. Runs stopped by a context
// or deadline still return a valid best-so-far result; StopReason is how
// callers tell such a result from a completed one.
type StopReason = core.StopReason

// Stop reasons.
const (
	// StopBudget: natural completion — no remaining change fits the error
	// budget.
	StopBudget = core.StopBudget
	// StopMaxIters: the Options.MaxIters cap was reached.
	StopMaxIters = core.StopMaxIters
	// StopCancelled: the ApproximateContext context was cancelled.
	StopCancelled = core.StopCancelled
	// StopDeadline: Options.TimeLimit or the context deadline expired.
	StopDeadline = core.StopDeadline
)

// Stats reports what a run did: counts of applied LACs and analyses, the
// wall-clock time and deterministic work of each analysis step and phase,
// CPM cache reuse, the DP-SA M trajectory, WCE certification accounting
// and the stop reason. It is the engine's own stats type, so every field
// is documented once, on core.Stats.
type Stats = core.Stats

// Result of Approximate.
type Result struct {
	Circuit *Circuit // the approximate circuit
	Error   float64  // achieved error on the training patterns

	AreaRatio  float64 // mapped area, approx / original
	DelayRatio float64
	ADPRatio   float64 // the paper's quality measure

	Stats Stats
}

// Approximate synthesises an approximate version of c under the given
// error budget. c is not modified, and concurrent Approximate calls may
// share one Circuit: the graph is snapshotted at the boundary, so the
// lazily cached traversal state of the shared graph is never touched —
// the steady state of a synthesis server running many jobs against one
// uploaded circuit.
func Approximate(c *Circuit, opt Options) (*Result, error) {
	return ApproximateContext(context.Background(), c, opt)
}

// ApproximateContext is Approximate with cooperative cancellation: when
// ctx is cancelled (or opt.TimeLimit expires) the run stops at the next
// checkpoint — within one analysis wave — and returns the valid
// best-so-far circuit instead of an error. Result.Error is the genuine
// sampled error of the returned circuit and never exceeds the budget;
// Stats.StopReason distinguishes a completed run (StopBudget,
// StopMaxIters) from a stopped one (StopCancelled, StopDeadline). An
// uncancelled run is bit-identical to Approximate for every thread
// count. Errors are returned only for invalid configurations, never for
// cancellation. A WCE run's SAT certification, capped or not, stops at
// the solver's next conflict, and the run returns its last certified
// circuit.
func ApproximateContext(ctx context.Context, c *Circuit, opt Options) (*Result, error) {
	if c == nil || c.g == nil {
		return nil, errors.New("dpals: nil circuit")
	}
	// WCE is defined over the unsigned LSB-first interpretation only (the
	// SAT certifier proves bounds on that reading), so it ignores the
	// circuit's recommendation; explicit weights are rejected by Validate.
	if opt.Weights == nil && opt.Metric != WCE {
		opt.Weights = c.weights
	}
	// Snapshot the shared graph before any analysis touches it: Clone
	// reads but never writes the receiver, whereas Sweep and techmap.Map
	// warm the graph's lazily cached traversal state (topo order, levels,
	// mark scratch) — a data race when concurrent calls share one Circuit.
	// Everything below runs against the private clone, which maps and
	// sweeps bit-identically to the original.
	g := c.g.Clone()
	res, err := core.Run(ctx, g, opt, core.Hooks{})
	if err != nil {
		return nil, err
	}
	mo := techmap.Map(g)
	ma := techmap.Map(res.Graph)
	out := &Result{
		Circuit:  &Circuit{g: res.Graph, weights: opt.Weights},
		Error:    res.Error,
		ADPRatio: techmap.ADPRatio(ma, mo),
		Stats:    res.Stats,
	}
	if mo.Area > 0 {
		out.AreaRatio = ma.Area / mo.Area
	}
	if mo.Delay > 0 {
		out.DelayRatio = ma.Delay / mo.Delay
	}
	return out, nil
}

// MeasureError computes the error of approx against orig from scratch by
// simulating both circuits on the same patterns — an independent check of
// a synthesis result. The patterns are exactly those of a uniform run with
// the same budget and seed: patterns ≤ 0 means core.DefaultPatterns, seed
// 0 means DefaultSeed, and the input space is enumerated when 2^inputs ≤
// patterns, else sampled. Nil weights select the circuit's recommendation
// (WCE always reads the outputs as unsigned and rejects explicit weights,
// as Approximate does). The circuits must have identical PI/PO interfaces.
func MeasureError(orig, approx *Circuit, m Metric, weights []float64, patterns int, seed int64) (float64, error) {
	return measure(orig, approx, Options{Metric: m, Weights: weights, Patterns: patterns, Seed: seed})
}

// MeasureErrorBiased is MeasureError under a biased input distribution
// (entry i = probability input i is 1); pass the same probabilities that
// were used for synthesis. Nil or empty probs mean uniform inputs, so the
// patterns are those of MeasureError: enumerated or sampled, as the run
// chose.
func MeasureErrorBiased(orig, approx *Circuit, m Metric, weights []float64, patterns int, seed int64, probs []float64) (float64, error) {
	return measure(orig, approx, Options{Metric: m, Weights: weights, Patterns: patterns, Seed: seed, InputProbabilities: probs})
}

// measure resolves and validates opt as a run does and computes its
// metric over orig and approx, simulated on the run's patterns
// (core.SimOptions).
func measure(orig, approx *Circuit, opt Options) (float64, error) {
	if orig.NumInputs() != approx.NumInputs() || orig.NumOutputs() != approx.NumOutputs() {
		return 0, fmt.Errorf("dpals: interface mismatch (%d/%d inputs, %d/%d outputs)",
			orig.NumInputs(), approx.NumInputs(), orig.NumOutputs(), approx.NumOutputs())
	}
	if opt.Weights == nil && opt.Metric != WCE {
		opt.Weights = orig.weights
	}
	opt = opt.Resolved()
	if err := opt.Validate(orig.NumOutputs()); err != nil {
		return 0, fmt.Errorf("dpals: %w", err)
	}
	return oracle.SampledError(orig.snap(), approx.snap(), opt.Metric, opt.Weights, core.SimOptions(opt))
}

// ReferenceError returns the paper's reference error R = 2^(K/3) for a
// circuit with K outputs. The paper's MED thresholds are {R/2, R, 2R} and
// MSE thresholds {R²/2, R², 2R²}.
func ReferenceError(c *Circuit) float64 { return metric.ReferenceError(c.NumOutputs()) }

// ProveEquivalent formally checks (by SAT) that a and b compute the same
// function on every input. On inequivalence the returned counterexample
// holds one bit per input.
func ProveEquivalent(a, b *Circuit) (bool, []bool, error) {
	return equiv.Equivalent(a.g, b.g)
}

// CertifyWorstCaseError formally checks (by SAT) that the numeric output
// deviation of approx from orig is at most t for EVERY input, with outputs
// read as unsigned LSB-first integers. Monte-Carlo metrics bound the
// average case; this bounds the worst case. On failure the returned
// counterexample is a violating input assignment.
func CertifyWorstCaseError(orig, approx *Circuit, t uint64) (bool, []bool, error) {
	return equiv.WCEAtMost(context.Background(), orig.g, approx.g, t, 0)
}

// WorstCaseError computes the exact worst-case numeric deviation of approx
// from orig by binary search over SAT certifications (≤ 62 outputs).
func WorstCaseError(orig, approx *Circuit) (uint64, error) {
	return equiv.WorstCaseError(orig.g, approx.g)
}

// MeasureErrorExact computes the exact error of approx against orig by
// enumerating every input combination: MeasureError with a budget of
// 2^inputs patterns, at most core.MaxPatterns (24 inputs).
func MeasureErrorExact(orig, approx *Circuit, m Metric, weights []float64) (float64, error) {
	if orig.NumInputs() >= 31 { // keeps 1 << inputs from overflowing
		return 0, fmt.Errorf("dpals: exhaustive measurement infeasible for %d inputs", orig.NumInputs())
	}
	return MeasureError(orig, approx, m, weights, 1<<orig.NumInputs(), 0)
}
