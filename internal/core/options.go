// Package core implements the iterative approximate logic synthesis flows
// of the paper: the conventional single-LAC flow with comprehensive error
// analysis (enhanced VECBEE: disjoint cuts + CPM), the original VECBEE
// baseline with a configurable depth limit, the AccALS multi-LAC baseline,
// and the dual-phase framework DP and its self-adaptive variant DP-SA —
// the paper's contribution.
package core

import (
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
	// Options.DepthLimit (0 = ∞, fully accurate; 1 = direct fanout).
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

// Options configures a synthesis run. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	Flow      Flow
	Metric    metric.Kind
	Threshold float64        // error upper bound E_b (ER: fraction; MSE/MED: absolute)
	Weights   metric.Weights // PO weights; nil = unsigned binary, LSB-first

	Patterns int   // Monte-Carlo patterns
	Seed     int64 // pattern RNG seed
	// Threads is the worker count for the parallel analysis pipeline
	// (simulation, disjoint cuts, CPM construction, LAC evaluation), with
	// the pipeline-wide semantics of package par: ≤0 selects all CPUs
	// (runtime.GOMAXPROCS), 1 runs serially. Results are bit-identical for
	// every value.
	Threads int

	// Exhaustive simulates all 2^PIs input patterns instead of Monte-Carlo
	// sampling, making every error figure exact. Only allowed for circuits
	// with at most 24 primary inputs.
	Exhaustive bool

	// InputProbabilities biases the Monte-Carlo input distribution: entry
	// i is the probability that input i reads 1 (missing entries: 0.5).
	// Ignored in exhaustive mode.
	InputProbabilities []float64

	LACs lac.Options // which LAC kinds to generate

	// VECBEE baseline.
	DepthLimit int // l: 0 = ∞

	// Dual-phase parameters. M ≤ 0 selects the paper defaults (60 for
	// circuits under 4000 AND nodes, 150 otherwise); N ≤ 0 selects M/3.
	M, N int

	// Self-adaption parameters (§III-D), used by FlowDPSA. Values ≤ 0 are
	// normalised to the paper defaults by Run, so the zero value behaves
	// like DefaultOptions.
	RInc float64 // candidate-set growth factor (≤0: 0.25)
	Br   float64 // relaxed bound ratio (≤0: 0.025)
	Bs   float64 // strict bound ratio (≤0: 0.25)
	Et   float64 // relative-error-increase threshold (≤0: 0.5)

	// AccALS parameters.
	MaxMulti int     // max LACs per iteration (≤0: 10)
	AccTol   float64 // allowed relative deviation estimate vs real (≤0: 0.05)

	// WCE-constrained flow (Metric == metric.WCE). WCEBound is the
	// worst-case error bound to certify: phase-1 analyses prune candidates
	// by a sampled worst-case upper-bound estimate, and a SAT certification
	// (equiv.WCEAtMost against the input circuit) amortized over every
	// CertEvery accepted LACs — and always before emit — proves the bound,
	// rolling back to the last certified state on violation. For WCE the
	// error budget is WCEBound (Threshold is derived from it) and the
	// outputs are read as an unsigned LSB-first number (Weights must be
	// nil, ≤ 62 outputs).
	WCEBound uint64
	// CertEvery is the certification amortization interval K: a SAT check
	// runs after every K accepted LACs (≤0: 8). Smaller K certifies more
	// often and rolls back less work per violation.
	CertEvery int
	// CertConflictLimit caps the SAT conflicts of each certification call
	// (0 = unlimited). An exhausted budget counts as a failed certification
	// — the engine rolls back — so limited runs stay deterministic.
	CertConflictLimit int64

	// MaxIters caps the number of applied LACs (safety; ≤0 = unlimited).
	MaxIters int

	// TimeLimit bounds the wall-clock time of a run (0 = unlimited).
	// Run derives a deadline-carrying context from it; when the
	// limit expires the run stops cooperatively at the next checkpoint and
	// returns the best-so-far result with Stats.StopReason = StopDeadline.
	TimeLimit time.Duration

	// OnIteration, when non-nil, observes every applied LAC: the 1-based
	// iteration number, the chosen candidate, and the full sorted
	// evaluation of the iteration (phase-2 iterations only see the
	// candidate set S_cand). Used by the Fig. 4 experiment.
	OnIteration func(iter int, chosen lac.NodeBest, bests []lac.NodeBest)

	// Fault, when non-nil, injects one deliberate bookkeeping mutation
	// into the run (see internal/fault): the engine consults the plan at
	// its bookkeeping sites and corrupts its state exactly once. Used only
	// by the alscheck differential-verification campaign to prove the
	// oracle cross-checks detect real engine bugs; nil — the default and
	// the only production value — is a faithful run. Plans are single-use:
	// never share one across runs.
	Fault *fault.Plan
}

// DefaultOptions returns the paper's experimental configuration for the
// given flow and metric.
func DefaultOptions(flow Flow, kind metric.Kind, threshold float64) Options {
	return Options{
		Flow:      flow,
		Metric:    kind,
		Threshold: threshold,
		Patterns:  8192,
		Seed:      1,
		Threads:   runtime.GOMAXPROCS(0),
		LACs:      lac.Options{Constants: true},
		RInc:      0.25,
		Br:        0.025,
		Bs:        0.25,
		Et:        0.5,
	}
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
	// valid best-so-far circuit at the last checkpoint.
	StopCancelled StopReason = "cancelled"
	// StopDeadline: Options.TimeLimit (or a context deadline) expired; the
	// result is the valid best-so-far circuit at the last checkpoint.
	StopDeadline StopReason = "deadline"
)

// StepTimes records the cumulated runtime of the three error-analysis steps
// of Fig. 3: (1) obtaining/updating disjoint cuts, (2) calculating the CPM,
// (3) calculating the error increases of the LACs. Each figure is the
// summed duration of the matching obs spans ("cuts"/"cuts.update", "cpm",
// "eval") — the single timing code path shared with trace exports, so a
// -stats dump and a trace summary can never disagree.
type StepTimes struct {
	Cuts time.Duration
	CPM  time.Duration
	Eval time.Duration
}

// Total returns the summed step time.
func (t StepTimes) Total() time.Duration { return t.Cuts + t.CPM + t.Eval }

// PhaseTimes records the cumulated wall-clock time of the two phases of
// the dual-phase framework, derived from the durations of the "phase1"
// and "phase2" obs spans. Phase1 covers every comprehensive analysis
// (including the per-iteration analyses of the conventional, VECBEE and
// AccALS baselines, which are all phase-1-style); Phase2 covers the
// incremental phase-2 loops of the dual-phase flows, applies included.
// Because both the exported trace and these fields read the same span
// durations, the per-phase spans of a trace sum exactly to PhaseTimes.
// Phase1Warm is the slice of Phase1 spent in warm-started passes (rounds
// that reused the previous round's cuts and CPM rows; see
// Stats.Phase1Warm) — the step-function drop of the cross-round reuse
// shows as Phase1Warm per pass being far below (Phase1−Phase1Warm) per
// cold pass.
type PhaseTimes struct {
	Phase1     time.Duration
	Phase2     time.Duration
	Phase1Warm time.Duration
}

// Total returns the summed phase time.
func (t PhaseTimes) Total() time.Duration { return t.Phase1 + t.Phase2 }

// StepWork is the deterministic analogue of StepTimes: cumulated work
// estimates of the three analysis steps in bitvec word operations, as
// self-reported by cut.Set.Work, cpm.Result.Work and lac.Evaluate.
// Unlike wall-clock times these are identical between runs regardless of
// Threads, machine, or load, so DP-SA's self-adaption (§III-D) profiles
// the steps with StepWork — keeping the whole flow bit-deterministic —
// while StepTimes keeps reporting real runtimes.
type StepWork struct {
	Cuts int64
	CPM  int64
	Eval int64

	// CPM cache row accounting (every disjoint-cut flow: conventional,
	// AccALS, DP, DP-SA): how many of the rows needed by the analyses were
	// served from the cache versus recomputed. Cold comprehensive passes
	// recompute every row; warm passes and phase-2 iterations reuse
	// whatever the applied LACs did not invalidate. The reuse rate is
	// CPMRowsReused / (CPMRowsReused + CPMRowsRecomputed). Deterministic
	// like the work counters; not part of Total.
	CPMRowsReused     int64
	CPMRowsRecomputed int64

	// Cross-round warm-start accounting (dual-phase flows). Warm
	// comprehensive passes charge Cuts, CPM and Eval with the
	// cold-equivalent work — reused cuts, rows and evaluations charge the
	// cost recorded at their last computation, which unchanged inputs make
	// exactly the cost of recomputing them — so the profile DP-SA tunes
	// from, and with it the whole trajectory, is bit-identical to what
	// from-scratch passes would produce. The *Skipped fields report
	// how much of that charged work was served from the previous round
	// instead of performed (0 in cold passes); EvalMemoHits counts the
	// targets whose generation+evaluation was reused whole; the Phase1 row
	// counters are the comprehensive-pass slice of the row accounting
	// above, from which the phase-1 reuse rate is derived.
	CutsSkipped             int64
	CPMSkipped              int64
	EvalSkipped             int64
	EvalMemoHits            int64
	CPMRowsReusedPhase1     int64
	CPMRowsRecomputedPhase1 int64
}

// Phase1ReuseRate returns the fraction of phase-1 CPM rows served from the
// previous round by warm-started comprehensive passes (0 when no pass was
// warm, e.g. in the conventional and AccALS flows).
func (w StepWork) Phase1ReuseRate() float64 {
	total := w.CPMRowsReusedPhase1 + w.CPMRowsRecomputedPhase1
	if total == 0 {
		return 0
	}
	return float64(w.CPMRowsReusedPhase1) / float64(total)
}

// Total returns the summed step work.
func (w StepWork) Total() int64 { return w.Cuts + w.CPM + w.Eval }

// Stats reports what a run did.
type Stats struct {
	Applied     int // LACs applied in total
	Phase1      int // comprehensive iterations (= dual-phase rounds for DP)
	Phase1Warm  int // comprehensive passes warm-started from the previous round
	Phase2      int // incremental iterations
	CutUpdates  int // incremental cut repairs performed after applies
	Rollbacks   int // AccALS/VECBEE reverted iterations
	NodesBefore int
	NodesAfter  int
	Runtime     time.Duration
	Step        StepTimes
	PhaseTime   PhaseTimes
	Work        StepWork

	// Pool is the final snapshot of the CPM cache's diff-vector free list
	// (every disjoint-cut flow; zero for VECBEE) — deterministic like Work,
	// see bitvec.PoolStats.
	Pool bitvec.PoolStats

	// WCE-constrained flow accounting (Metric == metric.WCE; zero
	// otherwise). CertifiedWCE is the SAT-proven worst-case error bound of
	// the returned circuit — every emitted circuit is certified, even on
	// cancellation (the uncertified tail is rolled back instead of running
	// new SAT work). CertCalls counts SAT certification calls, CertCexHits
	// the certifications refuted by a cached counterexample without solver
	// work, CertRollbacks the checkpoint failures that triggered the
	// rollback-and-replay path, and CertTime the summed duration of the
	// "cert" obs spans.
	CertifiedWCE  uint64
	CertCalls     int
	CertCexHits   int
	CertRollbacks int
	CertTime      time.Duration

	// StopReason tells why the run ended (budget, max-iters, cancelled,
	// deadline). Always set by Run.
	StopReason StopReason

	// Self-adaption trajectory (DP-SA): the M value after each dual phase.
	MTrace []int
}
