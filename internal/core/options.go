// Package core implements the iterative approximate logic synthesis flows
// of the paper: the conventional single-LAC flow with comprehensive error
// analysis (enhanced VECBEE: disjoint cuts + CPM), the original VECBEE
// baseline with a configurable depth limit, the AccALS multi-LAC baseline,
// and the dual-phase framework DP and its self-adaptive variant DP-SA —
// the paper's contribution.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"dpals/internal/bitvec"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/metric"
)

// Flow selects the synthesis algorithm.
type Flow int

// Supported flows.
const (
	// FlowConventional is Fig. 3(a): one LAC per iteration, comprehensive
	// error analysis with disjoint cuts — the "enhanced VECBEE" the paper
	// compares against and the first phase of the dual-phase framework.
	FlowConventional Flow = iota
	// FlowVECBEE is the original VECBEE [19] with one-cut depth limit
	// Options.DepthLimit.
	FlowVECBEE
	// FlowAccALS is AccALS [14]: multiple LACs per iteration with
	// post-apply validation and single-LAC (SEALS) fallback.
	FlowAccALS
	// FlowDP is the dual-phase framework without self-adaption.
	FlowDP
	// FlowDPSA is the dual-phase framework with the two self-adaption
	// techniques of §III-D.
	FlowDPSA
)

func (f Flow) String() string {
	switch f {
	case FlowConventional:
		return "Conventional"
	case FlowVECBEE:
		return "VECBEE"
	case FlowAccALS:
		return "AccALS"
	case FlowDP:
		return "DP"
	case FlowDPSA:
		return "DP-SA"
	}
	return "Flow(?)"
}

// Seed handling. Options.Seed = 0 is the zero value and therefore cannot
// mean "seed the RNG with 0": it is a documented alias for DefaultSeed,
// normalised exactly once, by Options.Resolved. Two runs whose resolved
// options agree — in particular, Seed: 0 and Seed: DefaultSeed — draw
// identical patterns and return bit-identical results; any two distinct
// resolved seeds are independent runs.
const (
	// UseDefaultSeed is the zero value of Options.Seed: an alias for
	// DefaultSeed, not a seed of its own.
	UseDefaultSeed int64 = 0
	// DefaultSeed is the simulation seed an unset (zero) Options.Seed
	// resolves to.
	DefaultSeed int64 = 1
)

// Defaults that Resolved fills in for unset options.
const (
	DefaultPatterns  = 8192 // simulation pattern budget
	DefaultCertEvery = 8    // WCE certification interval K
)

// MaxPatterns caps Options.Patterns: 2^24 patterns, enough to enumerate a
// 24-input circuit, already cost 2 MiB per simulated node.
const MaxPatterns = 1 << 24

// Parameters the paper fixes to one value. The §III-D self-adaption
// constants drive DP-SA; the AccALS ones are the baseline's batch size and
// its allowed relative deviation of the real error from the estimate.
const (
	rInc        = 0.25  // r_inc: candidate-set growth factor
	boundRelax  = 0.025 // B_r: relaxed bound ratio
	boundStrict = 0.25  // B_s: strict bound ratio
	errIncLimit = 0.5   // E_t: relative-error-increase threshold
	accMaxMulti = 10    // AccALS: max LACs per iteration
	accTol      = 0.05  // AccALS: allowed relative deviation, estimate vs real
)

// Options configures a synthesis run. It is the one options type from the
// public API to the engine: dpals.Options is an alias of it. Zero values
// select the defaults named on each field; Resolved fills them in and is
// the only place that does, and Validate is the only place that checks
// options against a circuit. Run does both.
//
// Options is also the serialised form of a run: its JSON names are the
// ones the alsd request body uses, oracle.RunSpec embeds it in fixture
// sidecars, and the alsd cache key hashes the JSON of the resolved value.
// Flow and Metric encode as their integer values; TimeLimit is never
// encoded.
type Options struct {
	Flow      Flow        `json:"flow"`
	Metric    metric.Kind `json:"metric"`
	Threshold float64     `json:"threshold"` // error budget E_b: ER fraction, or absolute MSE/MED/MHD
	// Weights are the numeric PO weights; nil reads the outputs as an
	// unsigned LSB-first number (dpals.Approximate first substitutes the
	// circuit's recommended weights). Must be nil for Metric WCE.
	Weights metric.Weights `json:"weights,omitempty"`

	// Patterns is the simulation pattern budget (default DefaultPatterns,
	// at most MaxPatterns). It and InputProbabilities alone name the
	// run's input patterns (SimOptions): a circuit whose input space fits
	// the budget (2^inputs ≤ Patterns) is enumerated rather than sampled,
	// unless InputProbabilities are set. Every error figure is then exact,
	// and a WCE run certifies by that enumeration instead of SAT (see
	// sim.New). Patterns = 1 << inputs asks for enumeration. A WCE run may
	// certify by enumeration beyond the budget too (CertifiesByEnumeration).
	Patterns int `json:"patterns,omitempty"`
	// Seed is the simulation RNG seed. The zero value (UseDefaultSeed) is
	// an alias for DefaultSeed — see the constants above. Every non-zero
	// seed is its own independent run.
	Seed int64 `json:"seed,omitempty"`
	// Threads is the worker count for the whole analysis pipeline
	// (simulation, disjoint cuts, CPM construction, LAC evaluation), with
	// the semantics of package par: ≤0 uses all CPUs, 1 runs serially.
	// Results are bit-identical for every value.
	Threads int `json:"threads,omitempty"`

	// InputProbabilities biases the input distribution: entry i is the
	// probability that input i is 1 (missing entries: 0.5). Error metrics
	// are then measured under that workload distribution, always by
	// sampling, whatever the budget. Empty means uniform.
	InputProbabilities []float64 `json:"input_probabilities,omitempty"`

	UseConstLACs   bool `json:"use_const_lacs,omitempty"`    // constant-0/1 replacements (default true if neither set)
	UseSASIMILACs  bool `json:"use_sasimi_lacs,omitempty"`   // SASIMI signal substitution
	MaxLACsPerNode int  `json:"max_lacs_per_node,omitempty"` // SASIMI candidates per node (0: 8)

	// WCEBound is the worst-case error budget for Metric == WCE: the run
	// only emits circuits whose maximum absolute numeric deviation is
	// certified ≤ WCEBound on every input — by enumeration when
	// CertifiesByEnumeration admits the circuit, else by SAT. Phase-1 analyses
	// prune candidates by a sampled worst-case upper-bound estimate, and
	// the sampled budget of the flow is WCEBound (Threshold is ignored).
	// Rejected when non-zero for other metrics.
	WCEBound uint64 `json:"wce_bound,omitempty"`
	// CertEvery amortises certification on the WCE path: a
	// certification call covers up to CertEvery accepted LACs, plus one
	// final call before emit (≤0: DefaultCertEvery). Smaller values
	// certify more often and roll back less work per violation.
	CertEvery int `json:"cert_every,omitempty"`
	// CertConflictLimit caps each SAT certification call at that many
	// solver conflicts (0 = unlimited). A call that exhausts its budget
	// counts as a failed certification and triggers rollback, keeping the
	// emitted bound sound; the run then stops deterministically.
	// Cancellation and TimeLimit interrupt a call, capped or not, at its
	// next conflict. Circuits that CertifiesByEnumeration admits never
	// call SAT and ignore the knob.
	CertConflictLimit int64 `json:"cert_conflict_limit,omitempty"`

	DepthLimit int `json:"depth_limit,omitempty"` // VECBEE depth limit l (0 = ∞, fully accurate; 1 = direct fanout)
	// M and N are the dual-phase parameters: 0 selects the paper defaults
	// (M = 60 for circuits under 4000 AND nodes, 150 otherwise; N = M/3).
	M        int `json:"m,omitempty"`
	N        int `json:"n,omitempty"`
	MaxIters int `json:"max_iters,omitempty"` // cap on applied LACs (0 = unlimited)

	// TimeLimit bounds the wall-clock time of the run (0 = unlimited).
	// When it expires the run stops cooperatively — within one analysis
	// wave — and returns the valid best-so-far circuit with
	// Stats.StopReason = StopDeadline. Composes with a context deadline:
	// whichever fires first stops the run. A SAT certification it cuts
	// short stops at the solver's next conflict, and the run emits its
	// last certified state.
	TimeLimit time.Duration `json:"-"`
}

// Resolved returns o with every defaulted knob replaced by the value the
// run will actually use: Patterns DefaultPatterns when unset, Seed
// DefaultSeed when UseDefaultSeed, Threads all CPUs when ≤ 0, constant
// LACs when no LAC kind is enabled, negative structural knobs
// (MaxLACsPerNode, DepthLimit, M, N, MaxIters) clamped to their 0
// "default" sentinel, and the WCE certification knobs normalised
// (CertEvery defaults to DefaultCertEvery on the WCE path; both are inert
// — zeroed — for other metrics). Run(o) ≡ Run(o.Resolved())
// bit-identically, so resolved options are the right identity for
// memoising results: two runs with equal resolved options (and equal
// circuits) return identical results, Threads aside, which never changes
// results. The alsd server keys its result cache on exactly this.
func (o Options) Resolved() Options {
	if o.Patterns <= 0 {
		o.Patterns = DefaultPatterns
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
	o.MaxLACsPerNode = max(o.MaxLACsPerNode, 0)
	o.DepthLimit = max(o.DepthLimit, 0)
	o.M, o.N = max(o.M, 0), max(o.N, 0)
	o.MaxIters = max(o.MaxIters, 0)
	if o.Metric == metric.WCE {
		if o.CertEvery <= 0 {
			o.CertEvery = DefaultCertEvery
		}
		o.CertConflictLimit = max(o.CertConflictLimit, 0)
	} else {
		// The certification knobs only exist on the WCE path; zeroing them
		// keeps resolved options a sound cache identity for the other
		// metrics (WCEBound ≠ 0 is rejected by Validate anyway).
		o.CertEvery = 0
		o.CertConflictLimit = 0
	}
	return o
}

// Validate checks o against a circuit with numPOs outputs and returns the
// first problem found, or nil. It is the one home of every option check:
// Run calls it, and so does the alsd server before queueing a job, so a
// bad request fails fast instead of taking a worker.
func (o Options) Validate(numPOs int) error {
	if o.Flow < FlowConventional || o.Flow > FlowDPSA {
		return fmt.Errorf("unknown flow %d", int(o.Flow))
	}
	if o.Metric < metric.ER || o.Metric > metric.WCE {
		return fmt.Errorf("unknown metric %d", int(o.Metric))
	}
	if !(o.Threshold >= 0) || math.IsInf(o.Threshold, 1) {
		return fmt.Errorf("threshold %v out of range (want a finite value ≥ 0)", o.Threshold)
	}
	if o.Weights != nil && len(o.Weights) != numPOs {
		return fmt.Errorf("%d weights for %d outputs", len(o.Weights), numPOs)
	}
	for _, w := range o.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("output weight %v is not finite", w)
		}
	}
	if o.Patterns > MaxPatterns {
		return fmt.Errorf("pattern budget %d above the limit %d", o.Patterns, MaxPatterns)
	}
	for _, p := range o.InputProbabilities {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("input probability %v out of [0,1]", p)
		}
	}
	if o.Metric == metric.WCE {
		// The certification miter reads the outputs as one unsigned
		// LSB-first number; arbitrary weights have no SAT counterpart.
		if o.Weights != nil {
			return errors.New("metric WCE uses the unsigned LSB-first output interpretation; Weights must be nil")
		}
		if numPOs > 62 {
			return fmt.Errorf("metric WCE limited to 62 outputs, circuit has %d", numPOs)
		}
	} else if o.WCEBound != 0 {
		return errors.New("WCEBound requires metric WCE")
	}
	return nil
}

// lacOptions is the LAC generator configuration of a run.
func (o Options) lacOptions() lac.Options {
	return lac.Options{Constants: o.UseConstLACs, SASIMI: o.UseSASIMILACs, MaxPerNode: o.MaxLACsPerNode}
}

// Hooks are the test and experiment callbacks of a run. They are not
// options — no production caller sets them — so they stay out of Options
// and with it out of the public API and the alsd cache key.
type Hooks struct {
	// OnIteration, when non-nil, observes every applied LAC: the 1-based
	// iteration number, the chosen candidate, and the full sorted
	// evaluation of the iteration (phase-2 iterations only see the
	// candidate set S_cand). Used by the Fig. 4 experiment. It fires only
	// for LACs the result keeps, numbered 1, 2, ..., Stats.Applied: a WCE
	// run reports a LAC once a checkpoint has certified it, so a LAC a
	// certification replay undoes is never reported.
	OnIteration func(iter int, chosen lac.NodeBest, bests []lac.NodeBest)

	// Fault, when non-nil, injects one deliberate bookkeeping mutation
	// into the run (see internal/fault): the engine consults the plan at
	// its bookkeeping sites and corrupts its state exactly once. Used only
	// by the alscheck differential-verification campaign to prove the
	// oracle cross-checks detect real engine bugs. Plans are single-use:
	// never share one across runs.
	Fault *fault.Plan
}

// StopReason tells why a synthesis run ended. Every run ends for exactly
// one of these reasons; callers that impose deadlines use it to tell a
// completed result from a best-so-far one.
type StopReason string

const (
	// StopBudget: natural completion — no remaining LAC fits the error
	// budget (or the circuit ran out of approximable nodes).
	StopBudget StopReason = "budget"
	// StopMaxIters: the Options.MaxIters safety cap was reached.
	StopMaxIters StopReason = "max-iters"
	// StopCancelled: the caller's context was cancelled; the result is the
	// valid best-so-far circuit at the last checkpoint. It also names a
	// WCE run whose flow had finished (for budget or max-iters) when
	// cancellation cut its certification short: that run emits its last
	// certified state, which depends on when the context ended.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: Options.TimeLimit (or a context deadline) expired; the
	// result is the valid best-so-far circuit at the last checkpoint, as
	// for StopCancelled.
	StopDeadline StopReason = "deadline"
)

// Stats reports what a run did. It is the one stats type from the engine
// to the command line: dpals.Stats is an alias of it, and alsrun -stats
// writes it with the JSON tags below.
//
// Every field except Runtime is deterministic: identical between runs
// regardless of Threads, machine, or load. The *Work fields profile the
// three analysis steps in bitvec word operations, as self-reported by
// cut.Set.Work, cpm.Result.Work and lac.Evaluate; DP-SA's self-adaption
// (§III-D) tunes from them, keeping the whole flow bit-deterministic.
// Per-step and per-phase wall times are span durations: record them with
// alsrun -trace (or an obs.Tracer on the context).
type Stats struct {
	Applied       int `json:"applied"`       // LACs applied and kept: rolled-back ones are uncounted
	Comprehensive int `json:"comprehensive"` // comprehensive (phase-1) analyses
	Incremental   int `json:"incremental"`   // incremental (phase-2) iterations
	Rollbacks     int `json:"rollbacks"`     // restores of a snapshot: AccALS, VECBEE and WCE replay

	Runtime time.Duration `json:"runtime_ns"` // wall time of the flow

	// Deterministic work of the three error-analysis steps of Fig. 3:
	// (1) obtaining or updating disjoint cuts, (2) calculating the CPM,
	// (3) calculating the error increases of the LACs.
	CutWork  int64 `json:"cut_work"`
	CPMWork  int64 `json:"cpm_work"`
	EvalWork int64 `json:"eval_work"`

	// CPM cache row accounting (every disjoint-cut flow: conventional,
	// AccALS, DP, DP-SA; zero for VECBEE): how many of the rows needed by
	// the analyses were served from the cache versus recomputed. Cold
	// comprehensive passes recompute every row; warm passes and phase-2
	// iterations reuse whatever the applied LACs did not invalidate.
	CPMRowsReused     int64 `json:"cpm_rows_reused"`
	CPMRowsRecomputed int64 `json:"cpm_rows_recomputed"`

	// Cross-round warm-start accounting (dual-phase flows; zero for the
	// others). WarmComprehensive counts the comprehensive passes that
	// reused the incrementally maintained analysis state instead of
	// rebuilding cold. Warm passes charge CutWork, CPMWork and EvalWork with
	// the cold-equivalent work — reused cuts, rows and evaluations charge
	// the cost recorded at their last computation, which unchanged inputs
	// make exactly the cost of recomputing them — so the profile DP-SA
	// tunes from, and with it the whole trajectory, is bit-identical to
	// what from-scratch passes would produce. The *Skipped fields report
	// how much of that charged work was served from the previous round
	// instead of performed (see SkippedWork); EvalMemoHits counts the
	// targets whose generation+evaluation was reused whole; the Phase1Rows
	// counters are the comprehensive-pass slice of the row accounting
	// above.
	WarmComprehensive    int   `json:"warm_comprehensive,omitempty"`
	CutSkipped           int64 `json:"-"`
	CPMSkipped           int64 `json:"-"`
	EvalSkipped          int64 `json:"-"`
	EvalMemoHits         int64 `json:"eval_memo_hits,omitempty"`
	Phase1RowsReused     int64 `json:"-"`
	Phase1RowsRecomputed int64 `json:"-"`

	// CutUpdates counts the incremental cut-set repairs performed after
	// applied LACs (dual-phase flows): each applied LAC patches the
	// affected cut cones in place instead of rebuilding the set.
	CutUpdates int `json:"cut_updates_incremental,omitempty"`

	// Pool is the final snapshot of the CPM cache's diff-vector arena
	// (every disjoint-cut flow; zero for VECBEE) — deterministic like the
	// work counters, see bitvec.PoolStats.
	Pool bitvec.PoolStats `json:"-"`

	// MTrace is the DP-SA self-adaption trajectory: the candidate-set size
	// M after each dual-phase round. Nil for other flows.
	MTrace []int `json:"m_trace,omitempty"`

	// WCE-constrained flow accounting (Metric == metric.WCE; zero
	// otherwise). CertifiedWCE is the proven worst-case error bound of the
	// returned circuit — every emitted circuit is certified, even on
	// cancellation (the uncertified tail is rolled back instead of running
	// new certification work). A run that CertifiesByEnumeration admits
	// proves it by enumeration, and CertifiedWCE is then the exact worst
	// case of the returned circuit; other runs prove it by SAT. CertCalls
	// counts SAT calls only, CertRollbacks the checkpoint failures that
	// triggered the rollback-and-replay path. CertCexHits is always 0:
	// certification keeps no counterexample cache; the field stays for
	// existing readers.
	CertifiedWCE  uint64 `json:"certified_wce,omitempty"`
	CertCalls     int    `json:"cert_calls,omitempty"`
	CertCexHits   int    `json:"cert_cex_hits,omitempty"`
	CertRollbacks int    `json:"cert_rollbacks,omitempty"`

	// StopReason tells why the run ended (budget, max-iters, cancelled,
	// deadline). Always set by Run.
	StopReason StopReason `json:"stop_reason"`
}

// ReuseRate returns the fraction of needed CPM rows that were served from
// the cache (0 when the cache saw no rows).
func (s Stats) ReuseRate() float64 { return ratio(s.CPMRowsReused, s.CPMRowsRecomputed) }

// Phase1ReuseRate returns the fraction of phase-1 CPM rows served from the
// previous round by warm-started comprehensive passes (0 when no pass was
// warm, e.g. in the conventional and AccALS flows).
func (s Stats) Phase1ReuseRate() float64 {
	return ratio(s.Phase1RowsReused, s.Phase1RowsRecomputed)
}

// SkippedWork is the total charged-but-not-performed work (word
// operations) across cuts, CPM and evaluation. It is included in
// CutWork/CPMWork/EvalWork, so those stay identical to a cold run.
func (s Stats) SkippedWork() int64 { return s.CutSkipped + s.CPMSkipped + s.EvalSkipped }

// ratio returns reused/(reused+recomputed), or 0 when both are 0.
func ratio(reused, recomputed int64) float64 {
	if reused+recomputed == 0 {
		return 0
	}
	return float64(reused) / float64(reused+recomputed)
}
