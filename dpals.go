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
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"dpals/internal/aig"
	"dpals/internal/aiger"
	"dpals/internal/bitvec"
	"dpals/internal/blif"
	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/gen"
	"dpals/internal/lac"
	"dpals/internal/lutmap"
	"dpals/internal/metric"
	"dpals/internal/sim"
	"dpals/internal/techmap"
	"dpals/internal/verilog"
)

// Metric selects the statistical error metric.
type Metric int

// Supported error metrics.
const (
	// ER is the error rate: the fraction of input patterns for which any
	// output bit differs from the exact circuit.
	ER Metric = iota
	// MSE is the mean squared error of the numeric output value.
	MSE
	// MED is the mean error distance (mean absolute numeric deviation).
	MED
	// MHD is the mean Hamming distance: the average number of output bits
	// that differ from the exact circuit per pattern.
	MHD
	// WCE is the worst-case error: the maximum absolute numeric deviation
	// over ALL inputs, with outputs read as unsigned LSB-first integers
	// (Weights must be nil, ≤ 62 outputs). Unlike the statistical metrics
	// above, WCE runs are SAT-certified: every returned circuit carries a
	// formally proven bound in Stats.CertifiedWCE ≤ Options.WCEBound.
	WCE
)

func (m Metric) String() string { return metric.Kind(m).String() }

// Flow selects the synthesis algorithm.
type Flow int

// Supported flows.
const (
	// Conventional: one LAC per iteration, full (comprehensive) error
	// analysis every iteration — the enhanced-VECBEE baseline.
	Conventional Flow = iota
	// VECBEE: the original one-cut VECBEE baseline; see Options.DepthLimit.
	VECBEE
	// AccALS: multiple LACs per iteration with validation and rollback.
	AccALS
	// DP: the dual-phase framework (the paper's contribution).
	DP
	// DPSA: DP plus the two self-adaption techniques.
	DPSA
)

func (f Flow) String() string { return core.Flow(f).String() }

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
// w must have exactly one weight per primary output; nil restores the
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
	c.weights = append([]float64(nil), w...)
	return nil
}

// Area returns the mapped cell area under the built-in generic library.
func (c *Circuit) Area() float64 { return techmap.Map(c.snap(), techmap.GenericLibrary()).Area }

// Delay returns the mapped critical-path delay under the built-in library.
func (c *Circuit) Delay() float64 { return techmap.Map(c.snap(), techmap.GenericLibrary()).Delay }

// ADP returns the area-delay product under the built-in library.
func (c *Circuit) ADP() float64 { return techmap.Map(c.snap(), techmap.GenericLibrary()).ADP() }

// LUTs returns the k-input LUT count of the circuit under the built-in
// FPGA-style mapper — an alternative area model for ALS results.
func (c *Circuit) LUTs(k int) int { return lutmap.Map(c.snap(), lutmap.Options{K: k}).LUTs }

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

// ReadAIGER parses an ASCII AIGER (aag) model.
func ReadAIGER(r io.Reader) (*Circuit, error) {
	g, err := aiger.Read(r)
	if err != nil {
		return nil, err
	}
	return &Circuit{g: g}, nil
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
	g := gen.Butterfly(w)
	c := &Circuit{g: g}
	word := metric.TwosComplementWeights((g.NumPOs()) / 4)
	var ws []float64
	for i := 0; i < 4; i++ {
		ws = append(ws, word...)
	}
	c.weights = ws
	return c
}

// NewVecMul returns a d-dimensional dot-product unit on w-bit operands.
func NewVecMul(d, w int) *Circuit { return &Circuit{g: gen.VecMul(d, w)} }

// NewKoggeStoneAdder returns an n-bit parallel-prefix adder (same function
// as NewAdder, logarithmic depth).
func NewKoggeStoneAdder(n int) *Circuit { return &Circuit{g: gen.KoggeStoneAdder(n)} }

// NewWallaceMultiplier returns an n×m unsigned multiplier with Wallace-tree
// reduction (same function as NewMultiplier(n, m, false)).
func NewWallaceMultiplier(n, m int) *Circuit { return &Circuit{g: gen.WallaceMultiplier(n, m)} }

// NewDivider returns an n-by-n unsigned restoring divider (quotient and
// remainder outputs).
func NewDivider(n int) *Circuit { return &Circuit{g: gen.Divider(n)} }

// NewMinMax returns an n-bit two-input sorter (min and max outputs).
func NewMinMax(n int) *Circuit { return &Circuit{g: gen.MinMax(n)} }

// NewFIR returns a FIR filter over `taps` w-bit samples with constant
// coefficients 1..taps.
func NewFIR(taps, w int) *Circuit { return &Circuit{g: gen.FIR(taps, w)} }

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

// Seed handling. Options.Seed = 0 is the zero value and therefore cannot
// mean "seed the RNG with 0": it is a documented alias for DefaultSeed,
// normalised exactly once at the API boundary (see Options.Resolved). Two
// runs whose resolved options agree — in particular, Seed: 0 and
// Seed: DefaultSeed — draw identical patterns and return bit-identical
// results; any two distinct resolved seeds are independent runs.
const (
	// UseDefaultSeed is the zero value of Options.Seed: an alias for
	// DefaultSeed, not a seed of its own.
	UseDefaultSeed int64 = 0
	// DefaultSeed is the simulation seed an unset (zero) Options.Seed
	// resolves to.
	DefaultSeed int64 = 1
)

// Options configures Approximate. Zero values select sensible defaults
// (8192 patterns, seed DefaultSeed, constant LACs, all CPUs).
type Options struct {
	Flow      Flow
	Metric    Metric
	Threshold float64   // error budget: ER fraction, or absolute MSE/MED
	Weights   []float64 // numeric PO weights; nil uses the circuit's recommendation

	Patterns int // Monte-Carlo patterns (default 8192)
	// Seed is the simulation RNG seed. The zero value (UseDefaultSeed) is
	// an alias for DefaultSeed — see the constants above. Every non-zero
	// seed is its own independent run.
	Seed int64
	// Threads is the worker count for the whole analysis pipeline
	// (simulation, cuts, CPM, LAC evaluation): ≤0 uses all CPUs, 1 runs
	// serially. Results are bit-identical for every value.
	Threads int

	// Exhaustive enumerates all 2^inputs patterns instead of sampling,
	// making every error figure exact. Limited to ≤ 24 inputs.
	Exhaustive bool

	// InputProbabilities biases the input distribution: entry i is the
	// probability that input i is 1 (missing entries default to 0.5).
	// Error metrics are then measured under that workload distribution.
	InputProbabilities []float64

	UseConstLACs   bool // constant-0/1 replacements (default true if neither set)
	UseSASIMILACs  bool // SASIMI signal substitution
	MaxLACsPerNode int  // SASIMI candidates per node (default 8)

	// WCEBound is the worst-case error budget for Metric == WCE: the run
	// only emits circuits whose maximum absolute numeric deviation is
	// SAT-certified ≤ WCEBound on every input. Ignored (and rejected when
	// non-zero) for other metrics, which use Threshold instead.
	WCEBound uint64
	// CertEvery amortises SAT certification on the WCE path: a
	// certification call covers up to CertEvery accepted LACs (plus one
	// final call before emit). ≤ 0 selects the default of 8.
	CertEvery int
	// CertConflictLimit caps each SAT certification call at that many
	// solver conflicts (0 = unlimited). A call that exhausts its budget
	// counts as a failed certification and triggers rollback, keeping the
	// emitted bound sound; the run then stops deterministically.
	CertConflictLimit int64

	DepthLimit int // VECBEE depth limit l (0 = ∞)
	M, N       int // dual-phase parameters (0 = paper defaults)
	MaxIters   int // cap on applied LACs (0 = unlimited)

	// TimeLimit bounds the wall-clock time of the run (0 = unlimited).
	// When it expires the run stops cooperatively — within one analysis
	// wave — and returns the valid best-so-far circuit with
	// Stats.StopReason = StopDeadline. Composes with ApproximateContext:
	// whichever of the context and the limit fires first stops the run.
	TimeLimit time.Duration
}

// Resolved returns o with every defaulted knob replaced by the value the
// run will actually use: Patterns 8192 when unset, Seed DefaultSeed when
// UseDefaultSeed, Threads all CPUs when ≤ 0, constant LACs when no LAC
// kind is enabled, negative structural knobs (DepthLimit, M, N,
// MaxIters, MaxLACsPerNode) clamped to their 0 "default" sentinel, and
// the WCE certification knobs normalised (CertEvery defaults to 8 on the
// WCE path; all three are inert — zeroed — for other metrics).
// Approximate(c, o) ≡ Approximate(c, o.Resolved()) bit-identically — the
// boundary normalises through this method — so resolved options are the
// right identity for memoising results: two calls with equal resolved
// options (and equal circuits and weights) return identical results,
// Threads aside, which never changes results. The alsd server keys its
// result cache on exactly this.
func (o Options) Resolved() Options {
	if o.Patterns <= 0 {
		o.Patterns = 8192
	}
	if o.Seed == UseDefaultSeed {
		o.Seed = DefaultSeed
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if !o.UseConstLACs && !o.UseSASIMILACs {
		o.UseConstLACs = true
	}
	if o.MaxLACsPerNode < 0 {
		o.MaxLACsPerNode = 0
	}
	if o.DepthLimit < 0 {
		o.DepthLimit = 0
	}
	if o.M < 0 {
		o.M = 0
	}
	if o.N < 0 {
		o.N = 0
	}
	if o.MaxIters < 0 {
		o.MaxIters = 0
	}
	if o.Metric == WCE {
		if o.CertEvery <= 0 {
			o.CertEvery = 8
		}
		if o.CertConflictLimit < 0 {
			o.CertConflictLimit = 0
		}
	} else {
		// The certification knobs only exist on the WCE path; zeroing them
		// here keeps resolved options a sound cache identity for the other
		// metrics (WCEBound ≠ 0 is rejected at the boundary anyway).
		o.CertEvery = 0
		o.CertConflictLimit = 0
	}
	return o
}

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

// Stats reports what a run did.
type Stats struct {
	Applied       int // LACs applied
	Comprehensive int // comprehensive (phase-1) analyses
	Incremental   int // incremental (phase-2) iterations
	Rollbacks     int
	Runtime       time.Duration
	CutTime       time.Duration // step 1: disjoint cuts
	CPMTime       time.Duration // step 2: change propagation matrix
	EvalTime      time.Duration // step 3: LAC error evaluation

	// Phase1Time/Phase2Time are the cumulated wall-clock times of the two
	// phases, derived from the engine's span tree (the same durations a
	// -trace export shows): Phase1Time covers every comprehensive analysis,
	// Phase2Time the incremental phase-2 loops of the dual-phase flows,
	// applies included. Phase1WarmTime is the slice of Phase1Time spent in
	// warm-started comprehensive passes (see WarmComprehensive).
	Phase1Time     time.Duration
	Phase2Time     time.Duration
	Phase1WarmTime time.Duration

	// Deterministic per-step work estimates in bit-vector word operations
	// — the profile DP-SA's self-adaption tunes from. Unlike the *Time
	// fields they are identical between runs for every Threads value.
	CutWork  int64
	CPMWork  int64
	EvalWork int64

	// CPM cache accounting: rows served from the persistent incremental
	// cache versus recomputed, across all analyses of the run. Every
	// disjoint-cut flow (Conventional, AccALS, DP, DPSA) goes through the
	// cache; zero for VECBEE, which does not use it.
	CPMRowsReused     int64
	CPMRowsRecomputed int64

	// Cross-round warm-start accounting (dual-phase flows; zero for the
	// others): WarmComprehensive counts the comprehensive passes that
	// reused the incrementally maintained analysis state instead of
	// rebuilding cold; Phase1RowsReused / Phase1RowsRecomputed split the
	// CPM rows of those phase-1 analyses; SkippedWork is the
	// total charged-but-not-performed work (word operations) across cuts,
	// CPM and evaluation — it is included in CutWork/CPMWork/EvalWork so
	// those stay identical to a cold run; EvalMemoHits counts target
	// evaluations served from the cross-round memo.
	WarmComprehensive    int
	Phase1RowsReused     int64
	Phase1RowsRecomputed int64
	SkippedWork          int64
	EvalMemoHits         int64

	// CutUpdates counts the incremental cut-set repairs performed after
	// applied LACs (dual-phase flows): each applied LAC in those flows
	// patches the affected cut cones in place instead of rebuilding the
	// set, and this is how often that happened. Deterministic.
	CutUpdates int

	// Pool is the final snapshot of the CPM cache's bit-vector free list
	// (every disjoint-cut flow; zero for VECBEE):
	// allocation-avoidance accounting, deterministic across thread counts.
	Pool bitvec.PoolStats

	// MTrace is the DP-SA self-adaption trajectory: the candidate-set size
	// M after each dual-phase round. Nil for other flows.
	MTrace []int

	// WCE certification accounting (Metric == WCE only; zero otherwise).
	// CertifiedWCE is the SAT-proven worst-case error bound of the returned
	// circuit: the solver certified that NO input deviates by more than
	// this, so it holds on all 2^PIs inputs, not just the training
	// patterns, and never exceeds Options.WCEBound. CertCalls counts SAT
	// certification calls, CertCexHits the candidate batches refuted by a
	// cached counterexample without touching the solver, CertRollbacks the
	// certification failures that rolled the circuit back to its last
	// certified state, and CertTime the wall clock spent certifying.
	CertifiedWCE  uint64
	CertCalls     int
	CertCexHits   int
	CertRollbacks int
	CertTime      time.Duration

	// StopReason tells why the run ended (StopBudget, StopMaxIters,
	// StopCancelled, StopDeadline). Always set.
	StopReason StopReason
}

// ReuseRate returns the fraction of needed CPM rows that were served from
// the incremental cache (0 when the cache saw no rows).
func (s Stats) ReuseRate() float64 {
	total := s.CPMRowsReused + s.CPMRowsRecomputed
	if total == 0 {
		return 0
	}
	return float64(s.CPMRowsReused) / float64(total)
}

// Phase1ReuseRate returns the fraction of phase-1 CPM rows served from the
// cross-round warm start (0 when no comprehensive pass used the cache).
func (s Stats) Phase1ReuseRate() float64 {
	total := s.Phase1RowsReused + s.Phase1RowsRecomputed
	if total == 0 {
		return 0
	}
	return float64(s.Phase1RowsReused) / float64(total)
}

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
// cancellation.
func ApproximateContext(ctx context.Context, c *Circuit, opt Options) (*Result, error) {
	if c == nil || c.g == nil {
		return nil, errors.New("dpals: nil circuit")
	}
	if opt.Weights != nil && len(opt.Weights) != c.NumOutputs() {
		return nil, fmt.Errorf("dpals: %d weights for %d outputs", len(opt.Weights), c.NumOutputs())
	}
	// Normalise every defaulted knob exactly once, at the boundary: below
	// here opt.Seed, opt.Patterns etc. are the values the run uses, with
	// no second defaulting site that could disagree (the old code mapped
	// Seed != 0 only, silently aliasing an explicit Seed: 0 to 1 without
	// anything a caller — or a result cache — could observe).
	opt = opt.Resolved()
	// Snapshot the shared graph before any analysis touches it: Clone
	// reads but never writes the receiver, whereas Sweep and techmap.Map
	// warm the graph's lazily cached traversal state (topo order, levels,
	// mark scratch) — a data race when concurrent calls share one Circuit.
	// Everything below runs against the private clone, which maps and
	// sweeps bit-identically to the original.
	g := c.g.Clone()
	iopt := core.DefaultOptions(core.Flow(opt.Flow), metric.Kind(opt.Metric), opt.Threshold)
	iopt.Patterns = opt.Patterns
	iopt.Seed = opt.Seed
	iopt.Threads = opt.Threads
	iopt.Exhaustive = opt.Exhaustive
	iopt.InputProbabilities = opt.InputProbabilities
	iopt.DepthLimit = opt.DepthLimit
	iopt.M, iopt.N = opt.M, opt.N
	iopt.MaxIters = opt.MaxIters
	iopt.WCEBound = opt.WCEBound
	iopt.CertEvery = opt.CertEvery
	iopt.CertConflictLimit = opt.CertConflictLimit
	iopt.TimeLimit = opt.TimeLimit
	iopt.LACs = lac.Options{
		Constants:  opt.UseConstLACs,
		SASIMI:     opt.UseSASIMILACs,
		MaxPerNode: opt.MaxLACsPerNode,
	}
	weights := opt.Weights
	if weights == nil {
		weights = c.weights
	}
	if opt.Metric == WCE {
		// WCE is defined over the unsigned LSB-first interpretation only:
		// the SAT certifier proves bounds on that reading, so a weighted
		// reading would certify the wrong quantity. Reject explicit weights
		// and ignore the circuit's recommendation rather than silently
		// certifying something other than what was measured.
		if opt.Weights != nil {
			return nil, errors.New("dpals: Metric WCE uses the unsigned LSB-first output interpretation; Weights must be nil")
		}
		weights = nil
	}
	iopt.Weights = weights

	res, err := core.Run(ctx, g, iopt)
	if err != nil {
		return nil, err
	}
	lib := techmap.GenericLibrary()
	mo := techmap.Map(g, lib)
	ma := techmap.Map(res.Graph, lib)
	out := &Result{
		Circuit:  &Circuit{g: res.Graph, weights: weights},
		Error:    res.Error,
		ADPRatio: techmap.ADPRatio(ma, mo),
		Stats: Stats{
			Applied:              res.Stats.Applied,
			Comprehensive:        res.Stats.Phase1,
			Incremental:          res.Stats.Phase2,
			Rollbacks:            res.Stats.Rollbacks,
			Runtime:              res.Stats.Runtime,
			CutTime:              res.Stats.Step.Cuts,
			CPMTime:              res.Stats.Step.CPM,
			EvalTime:             res.Stats.Step.Eval,
			Phase1Time:           res.Stats.PhaseTime.Phase1,
			Phase2Time:           res.Stats.PhaseTime.Phase2,
			Phase1WarmTime:       res.Stats.PhaseTime.Phase1Warm,
			Pool:                 res.Stats.Pool,
			CutWork:              res.Stats.Work.Cuts,
			CPMWork:              res.Stats.Work.CPM,
			EvalWork:             res.Stats.Work.Eval,
			CPMRowsReused:        res.Stats.Work.CPMRowsReused,
			CPMRowsRecomputed:    res.Stats.Work.CPMRowsRecomputed,
			WarmComprehensive:    res.Stats.Phase1Warm,
			Phase1RowsReused:     res.Stats.Work.CPMRowsReusedPhase1,
			Phase1RowsRecomputed: res.Stats.Work.CPMRowsRecomputedPhase1,
			SkippedWork:          res.Stats.Work.CutsSkipped + res.Stats.Work.CPMSkipped + res.Stats.Work.EvalSkipped,
			EvalMemoHits:         res.Stats.Work.EvalMemoHits,
			CutUpdates:           res.Stats.CutUpdates,
			MTrace:               res.Stats.MTrace,
			CertifiedWCE:         res.Stats.CertifiedWCE,
			CertCalls:            res.Stats.CertCalls,
			CertCexHits:          res.Stats.CertCexHits,
			CertRollbacks:        res.Stats.CertRollbacks,
			CertTime:             res.Stats.CertTime,
			StopReason:           res.Stats.StopReason,
		},
	}
	if mo.Area > 0 {
		out.AreaRatio = ma.Area / mo.Area
	}
	if mo.Delay > 0 {
		out.DelayRatio = ma.Delay / mo.Delay
	}
	return out, nil
}

// MeasureErrorBiased is MeasureError under a biased input distribution
// (entry i = probability input i is 1); pass the same probabilities that
// were used for synthesis.
func MeasureErrorBiased(orig, approx *Circuit, m Metric, weights []float64, patterns int, seed int64, probs []float64) (float64, error) {
	if orig.NumInputs() != approx.NumInputs() || orig.NumOutputs() != approx.NumOutputs() {
		return 0, fmt.Errorf("dpals: interface mismatch")
	}
	if patterns <= 0 {
		patterns = 8192
	}
	dist := sim.Biased{P: probs}
	so := sim.New(orig.snap(), sim.Options{Patterns: patterns, Seed: seed, Dist: dist})
	sa := sim.New(approx.snap(), sim.Options{Patterns: patterns, Seed: seed, Dist: dist})
	eo := make([]bitvec.Vec, orig.NumOutputs())
	ea := make([]bitvec.Vec, orig.NumOutputs())
	for o := range eo {
		eo[o] = bitvec.NewWords(so.Words())
		so.POVal(o, eo[o])
		ea[o] = bitvec.NewWords(sa.Words())
		sa.POVal(o, ea[o])
	}
	weights = pickWeights(weights, orig, m)
	return metric.Compute(metric.Kind(m), weights, eo, ea, so.Patterns()), nil
}

func pickWeights(weights []float64, orig *Circuit, m Metric) []float64 {
	if weights == nil {
		weights = orig.weights
	}
	if weights == nil && metric.Kind(m).Numeric() {
		weights = metric.UnsignedWeights(orig.NumOutputs())
	}
	return weights
}

// MeasureError computes the error of approx against orig from scratch by
// simulating both circuits on the same patterns — an independent check of
// a synthesis result. The circuits must have identical PI/PO interfaces.
func MeasureError(orig, approx *Circuit, m Metric, weights []float64, patterns int, seed int64) (float64, error) {
	if orig.NumInputs() != approx.NumInputs() || orig.NumOutputs() != approx.NumOutputs() {
		return 0, fmt.Errorf("dpals: interface mismatch (%d/%d inputs, %d/%d outputs)",
			orig.NumInputs(), approx.NumInputs(), orig.NumOutputs(), approx.NumOutputs())
	}
	if patterns <= 0 {
		patterns = 8192
	}
	so := sim.New(orig.snap(), sim.Options{Patterns: patterns, Seed: seed})
	sa := sim.New(approx.snap(), sim.Options{Patterns: patterns, Seed: seed})
	eo := make([]bitvec.Vec, orig.NumOutputs())
	ea := make([]bitvec.Vec, orig.NumOutputs())
	for o := range eo {
		eo[o] = bitvec.NewWords(so.Words())
		so.POVal(o, eo[o])
		ea[o] = bitvec.NewWords(sa.Words())
		sa.POVal(o, ea[o])
	}
	if weights == nil {
		weights = orig.weights
	}
	if weights == nil && metric.Kind(m).Numeric() {
		weights = metric.UnsignedWeights(orig.NumOutputs())
	}
	return metric.Compute(metric.Kind(m), weights, eo, ea, so.Patterns()), nil
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
	return equiv.WCEAtMost(orig.g, approx.g, t)
}

// WorstCaseError computes the exact worst-case numeric deviation of approx
// from orig by binary search over SAT certifications (≤ 62 outputs).
func WorstCaseError(orig, approx *Circuit) (uint64, error) {
	return equiv.WorstCaseError(orig.g, approx.g)
}

// MeasureErrorExact computes the exact error of approx against orig by
// enumerating every input combination (≤ 24 inputs).
func MeasureErrorExact(orig, approx *Circuit, m Metric, weights []float64) (float64, error) {
	if orig.NumInputs() > 24 {
		return 0, fmt.Errorf("dpals: exhaustive measurement infeasible for %d inputs (max 24)", orig.NumInputs())
	}
	if orig.NumInputs() != approx.NumInputs() || orig.NumOutputs() != approx.NumOutputs() {
		return 0, fmt.Errorf("dpals: interface mismatch")
	}
	patterns := 1 << orig.NumInputs()
	so := sim.New(orig.snap(), sim.Options{Patterns: patterns, Dist: sim.Exhaustive{}})
	sa := sim.New(approx.snap(), sim.Options{Patterns: patterns, Dist: sim.Exhaustive{}})
	eo := make([]bitvec.Vec, orig.NumOutputs())
	ea := make([]bitvec.Vec, orig.NumOutputs())
	for o := range eo {
		eo[o] = bitvec.NewWords(so.Words())
		so.POVal(o, eo[o])
		ea[o] = bitvec.NewWords(sa.Words())
		sa.POVal(o, ea[o])
	}
	if weights == nil {
		weights = orig.weights
	}
	if weights == nil && metric.Kind(m).Numeric() {
		weights = metric.UnsignedWeights(orig.NumOutputs())
	}
	return metric.Compute(metric.Kind(m), weights, eo, ea, patterns), nil
}
