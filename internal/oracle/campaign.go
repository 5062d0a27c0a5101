package oracle

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"dpals/internal/aig"
	"dpals/internal/aiger"
	"dpals/internal/core"
	"dpals/internal/equiv"
	"dpals/internal/fault"
	"dpals/internal/lac"
	"dpals/internal/metric"
	"dpals/internal/sim"
)

// RunSpec is one reproducible campaign run: the core.Options of the
// synthesis plus an optional mid-run cancellation point and an optional
// seeded fault. It is JSON-serialisable, with the option names of
// core.Options, so repro sidecars carry it verbatim.
type RunSpec struct {
	core.Options

	// CancelAfter > 0 cancels the run's context right after the N-th
	// applied LAC, exercising the best-so-far exit paths.
	CancelAfter int `json:"cancel_after,omitempty"`

	// Fault/FaultNth seed one bookkeeping mutation (internal/fault) at the
	// Nth opportunity. Empty Fault is a clean run.
	Fault    fault.Kind `json:"fault,omitempty"`
	FaultNth int        `json:"fault_nth,omitempty"`
}

// Outcome bundles a run's result with its per-iteration evaluation
// trace: one hash per applied LAC folding the chosen candidate and the
// full sorted evaluation of that iteration. Two runs of the same spec
// must produce identical traces; a corrupted error ESTIMATE shows up here
// even when it never changes which LAC wins — the final circuits agree
// but some iteration's evaluation does not.
type Outcome struct {
	Result *core.Result
	Plan   *fault.Plan // the consumed fault plan (nil for clean runs)
	Trace  []uint64
	Err    error // invalid spec, or a recovered engine panic
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// ExecuteTraced runs the spec on g, recording the evaluation trace. A
// panic inside the engine — possible when a seeded fault leaves internal
// state inconsistent — is recovered into Outcome.Err; for fault-seeded
// runs the campaign counts that as a detection.
func ExecuteTraced(g *aig.Graph, spec RunSpec) (out Outcome) {
	var hooks core.Hooks
	if spec.Fault != fault.None && spec.Fault != "" {
		hooks.Fault = fault.New(spec.Fault, spec.FaultNth)
	}
	out.Plan = hooks.Fault
	ctx := context.Background()
	var cancel context.CancelFunc
	if spec.CancelAfter > 0 {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	hooks.OnIteration = func(iter int, chosen lac.NodeBest, bests []lac.NodeBest) {
		h := fold(fold(fnvOffset, uint64(iter)), uint64(chosen.Node))
		h = fold(h, math.Float64bits(chosen.Best.Err))
		h = fold(h, uint64(chosen.Best.NewLit))
		for _, b := range bests {
			h = fold(fold(fold(h, uint64(b.Node)), math.Float64bits(b.Best.Err)), uint64(b.Best.NewLit))
		}
		out.Trace = append(out.Trace, h)
		if cancel != nil && iter >= spec.CancelAfter {
			cancel()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			out.Result = nil
			out.Err = fmt.Errorf("oracle: engine panic: %v\n%s", r, debug.Stack())
		}
	}()
	out.Result, out.Err = core.Run(ctx, g, spec.Options, hooks)
	return out
}

// Execute is ExecuteTraced without the trace, for callers that only need
// the result.
func Execute(g *aig.Graph, spec RunSpec) (*core.Result, *fault.Plan, error) {
	o := ExecuteTraced(g, spec)
	return o.Result, o.Plan, o.Err
}

// Violation is one failed cross-check.
type Violation struct {
	Check  string // short stable identifier, e.g. "reported-vs-recomputed"
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// tol is the float comparison tolerance between the engine's incremental
// error bookkeeping and the oracle's from-scratch recompute: both fold the
// same per-pattern contributions, but in different orders, so they may
// differ by accumulated rounding — never by more than a few ulps scaled by
// the magnitude. Any genuine bookkeeping bug shifts the result by at least
// one whole pattern contribution, far above this.
func tol(a, b float64) float64 {
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return 1e-9 + 1e-6*m
}

// Verify cross-checks a run's result against orig, the circuit it
// approximated. The checks, in order:
//
//	graph-invariant        res.Graph passes aig.Graph.Check
//	reported-vs-recomputed res.Error equals the error recomputed from
//	                       scratch (metric.Compute) on the run's own
//	                       training patterns        — catches bookkeeping
//	                       desyncs (P1)
//	budget                 the recomputed error respects the threshold,
//	                       even for cancelled best-so-far results (P2)
//	exact-bound            for ≤ MaxPIs inputs, the exhaustively
//	                       enumerated true error: equal to the reported
//	                       one when the run's patterns enumerate the
//	                       input space (sim.Enumerates); within the
//	                       Hoeffding bound of it for Monte-Carlo runs (P3)
//	stop-reason            every run ends with a recorded stop reason
func Verify(orig *aig.Graph, spec RunSpec, res *core.Result) []Violation {
	var out []Violation
	if res == nil || res.Graph == nil {
		return []Violation{{Check: "no-result", Detail: "run returned no result"}}
	}
	if err := res.Graph.Check(); err != nil {
		out = append(out, Violation{Check: "graph-invariant", Detail: err.Error()})
	}
	if res.Graph.NumPIs() != orig.NumPIs() || res.Graph.NumPOs() != orig.NumPOs() {
		out = append(out, Violation{Check: "interface", Detail: fmt.Sprintf(
			"result has %d PIs / %d POs, original %d / %d",
			res.Graph.NumPIs(), res.Graph.NumPOs(), orig.NumPIs(), orig.NumPOs())})
		return out // every later check needs matching interfaces
	}
	opt := spec.Options.Resolved()
	so := core.SimOptions(opt)
	enumerated := sim.Enumerates(orig.NumPIs(), so)
	recomputed, err := SampledError(orig, res.Graph, opt.Metric, opt.Weights, so)
	if err != nil {
		return append(out, Violation{Check: "recompute", Detail: err.Error()})
	}
	if d := math.Abs(res.Error - recomputed); d > tol(res.Error, recomputed) {
		out = append(out, Violation{Check: "reported-vs-recomputed", Detail: fmt.Sprintf(
			"run reported %v but recomputing on its own patterns gives %v (Δ=%v)",
			res.Error, recomputed, d)})
	}
	// For WCE specs the budget is the certified bound; Threshold is derived.
	thr := spec.Threshold
	if spec.Metric == metric.WCE {
		thr = float64(spec.WCEBound)
		if res.Stats.CertifiedWCE > spec.WCEBound {
			out = append(out, Violation{Check: "wce-cert-bound", Detail: fmt.Sprintf(
				"certified WCE %d exceeds the requested bound %d", res.Stats.CertifiedWCE, spec.WCEBound)})
		}
		// The sampled max is a lower bound on the true worst case, which
		// the certificate claims to upper-bound: sampled > certified means
		// the certificate is provably false on the training patterns alone.
		if recomputed > float64(res.Stats.CertifiedWCE)+tol(recomputed, float64(res.Stats.CertifiedWCE)) {
			out = append(out, Violation{Check: "wce-sampled-vs-certified", Detail: fmt.Sprintf(
				"sampled worst case %v exceeds the certified bound %d", recomputed, res.Stats.CertifiedWCE)})
		}
	}
	if recomputed > thr+tol(recomputed, thr) {
		out = append(out, Violation{Check: "budget", Detail: fmt.Sprintf(
			"sampled error %v exceeds threshold %v (stop=%s)",
			recomputed, thr, res.Stats.StopReason)})
	}
	if orig.NumPIs() <= MaxPIs {
		ex, err := Exact(orig, res.Graph, opt.Weights)
		if err != nil {
			out = append(out, Violation{Check: "exact", Detail: err.Error()})
		} else if spec.Metric == metric.WCE {
			// The certificate must hold against the exhaustive truth: a run
			// that claims CertifiedWCE but emits a circuit whose true worst
			// case exceeds it skipped (or botched) its certification — the
			// skip-wce-cert detection signal.
			if ex.WCEOK && ex.WCE > res.Stats.CertifiedWCE {
				out = append(out, Violation{Check: "wce-cert-unsound", Detail: fmt.Sprintf(
					"true worst-case error %d exceeds the certified bound %d", ex.WCE, res.Stats.CertifiedWCE)})
			}
			if enumerated && ex.WCEOK {
				if d := math.Abs(res.Error - float64(ex.WCE)); d > tol(res.Error, float64(ex.WCE)) {
					out = append(out, Violation{Check: "exact-bound", Detail: fmt.Sprintf(
						"exhaustive run reported WCE %v but enumeration gives %d", res.Error, ex.WCE)})
				}
			}
			// No Hoeffding check: a sampled maximum is not a mean, so the
			// concentration bound does not apply — the certificate checks
			// above are strictly stronger anyway.
		} else {
			truth := ex.Get(spec.Metric)
			if enumerated {
				// Enumerated training: the sampled error IS the true error.
				if d := math.Abs(res.Error - truth); d > tol(res.Error, truth) {
					out = append(out, Violation{Check: "exact-bound", Detail: fmt.Sprintf(
						"exhaustive run reported %v but enumeration gives %v (Δ=%v)",
						res.Error, truth, d)})
				}
			} else {
				// Monte-Carlo: the estimate must sit within the Hoeffding
				// bound of the truth (alpha = 1e-9: a false alarm is
				// essentially impossible; real miscounting bugs overshoot
				// this by orders of magnitude).
				rang := metric.MaxDeviation(spec.Metric, weightsFor(opt, orig), orig.NumPOs())
				delta := metric.HoeffdingDelta(rang, opt.Patterns, 1e-9)
				if d := math.Abs(res.Error - truth); d > delta+tol(res.Error, truth) {
					out = append(out, Violation{Check: "mc-bound", Detail: fmt.Sprintf(
						"estimate %v vs exact %v: Δ=%v exceeds Hoeffding bound %v (n=%d)",
						res.Error, truth, d, delta, opt.Patterns)})
				}
			}
		}
	}
	if res.Stats.StopReason == "" {
		out = append(out, Violation{Check: "stop-reason", Detail: "run ended without a stop reason"})
	}
	return out
}

func weightsFor(opt core.Options, g *aig.Graph) metric.Weights {
	if opt.Weights != nil {
		return opt.Weights
	}
	if opt.Metric.Numeric() {
		return metric.UnsignedWeights(g.NumPOs())
	}
	return nil
}

// Diverges compares two results of supposedly identical runs — same spec
// up to an irrelevant knob (thread count, CPM cache on/off) — and returns
// "" when they are bit-identical, or a description of the first
// difference. Graphs are compared by their serialised AIGER bytes, the
// strictest structural equality available.
func Diverges(a, b *core.Result) string {
	if (a == nil) != (b == nil) {
		return "one run returned a result, the other none"
	}
	if a == nil {
		return ""
	}
	if math.Float64bits(a.Error) != math.Float64bits(b.Error) {
		return fmt.Sprintf("final errors differ: %v vs %v", a.Error, b.Error)
	}
	if a.Stats.Applied != b.Stats.Applied {
		return fmt.Sprintf("applied-LAC counts differ: %d vs %d", a.Stats.Applied, b.Stats.Applied)
	}
	ab, bb := aigerBytes(a.Graph), aigerBytes(b.Graph)
	if !bytes.Equal(ab, bb) {
		return fmt.Sprintf("result circuits differ structurally (%d vs %d AIGER bytes)", len(ab), len(bb))
	}
	return ""
}

func aigerBytes(g *aig.Graph) []byte {
	var buf bytes.Buffer
	if err := aiger.Write(&buf, g); err != nil {
		return []byte("unserialisable: " + err.Error())
	}
	return buf.Bytes()
}

// DivergesOutcome is Diverges extended to the evaluation traces: it
// catches corruption of intermediate error estimates (a wrong number in
// one iteration's candidate ranking) even when the run still picks the
// same LACs and lands on the same final circuit.
func DivergesOutcome(a, b Outcome) string {
	if len(a.Trace) != len(b.Trace) {
		return fmt.Sprintf("iteration counts differ: %d vs %d applied LACs traced", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return fmt.Sprintf("evaluation traces diverge at applied LAC %d", i+1)
		}
	}
	return Diverges(a.Result, b.Result)
}

// Detection is the outcome of one fault-seeded run.
type Detection struct {
	Detected bool
	Fired    bool   // the plan reached its Nth opportunity
	How      string // which signal caught it: a Violation check, "panic", or "divergence"
	Detail   string
}

// DetectFault runs spec (which must seed a fault) on g and reports
// whether any cross-check catches the corruption. clean is the traced
// outcome of the same spec without the fault, used for the divergence
// signal; pass nil to skip it. A fault whose plan never fired (the run
// had fewer opportunities than FaultNth) returns Fired=false — the
// caller should move on to another site rather than count it as a miss.
func DetectFault(g *aig.Graph, spec RunSpec, clean *Outcome) Detection {
	o := ExecuteTraced(g, spec)
	if o.Err != nil {
		// A seeded fault crashing the engine is the loudest detection.
		return Detection{Detected: true, Fired: true, How: "panic", Detail: o.Err.Error()}
	}
	fired := o.Plan.Fired()
	if !fired {
		return Detection{Fired: false}
	}
	if vs := Verify(g, spec, o.Result); len(vs) > 0 {
		return Detection{Detected: true, Fired: true, How: vs[0].Check, Detail: vs[0].Detail}
	}
	if clean != nil {
		if d := DivergesOutcome(*clean, o); d != "" {
			return Detection{Detected: true, Fired: true, How: "divergence", Detail: d}
		}
	}
	return Detection{Fired: true}
}

// CleanOutcome runs spec with any seeded fault stripped, as the reference
// for divergence checks.
func CleanOutcome(g *aig.Graph, spec RunSpec) Outcome {
	spec.Fault = fault.None
	spec.FaultNth = 0
	return ExecuteTraced(g, spec)
}

// ScanFault scans injection sites nth = 1, 2, ... (up to maxNth) for the
// given fault kind until one seeded run is detected. Some sites are
// "equivalent mutants" — the corruption never becomes observable (e.g. a
// skipped invalidation of a row nothing reads again) — so the campaign
// asserts each KIND is detectable at some site, not at every site. The
// clean reference outcome is computed once.
func ScanFault(g *aig.Graph, spec RunSpec, kind fault.Kind, maxNth int) (Detection, int) {
	clean := CleanOutcome(g, spec)
	if clean.Err != nil {
		return Detection{Detail: "clean run failed: " + clean.Err.Error()}, 0
	}
	for nth := 1; nth <= maxNth; nth++ {
		s := spec
		s.Fault = kind
		s.FaultNth = nth
		det := DetectFault(g, s, &clean)
		if det.Detected {
			return det, nth
		}
		if !det.Fired {
			// No run will have more opportunities than this one did; stop.
			return det, nth
		}
	}
	return Detection{Fired: true}, maxNth
}

// CrossCheckWCE compares the SAT-certified worst-case error
// (equiv.WorstCaseError, binary search over a miter) against the
// exhaustively enumerated one. Two completely independent derivations —
// CDCL over a Tseitin encoding vs bit-parallel truth tables — agreeing on
// an exact integer is strong evidence both are right. Restricted to
// MaxPIs inputs and ≤ 16 outputs to keep the binary search cheap.
func CrossCheckWCE(orig, approx *aig.Graph) *Violation {
	if orig.NumPIs() > MaxPIs || orig.NumPOs() > 16 || orig.NumPOs() == 0 {
		return nil
	}
	ex, err := Exact(orig, approx, nil)
	if err != nil {
		return &Violation{Check: "wce-exact", Detail: err.Error()}
	}
	sat, err := equiv.WorstCaseError(orig, approx)
	if err != nil {
		return &Violation{Check: "wce-sat", Detail: err.Error()}
	}
	if sat != ex.WCE {
		return &Violation{Check: "wce-cross", Detail: fmt.Sprintf(
			"SAT binary search says WCE=%d, exhaustive enumeration says %d", sat, ex.WCE)}
	}
	return nil
}

// CheckBudgetMonotonic runs the conventional flow at each threshold (must
// be sorted ascending) and checks the metamorphic property that a larger
// budget can only extend the applied-LAC sequence: the greedy conventional
// flow picks LACs in a threshold-independent order, so the applied count
// is non-decreasing in the threshold. (The dual-phase and AccALS flows
// take threshold-DEPENDENT trajectories — bound ratios and validation
// scale with the budget — so this is a theorem only for FlowConventional.)
func CheckBudgetMonotonic(g *aig.Graph, spec RunSpec, thresholds []float64) []Violation {
	if spec.Flow != core.FlowConventional {
		return []Violation{{Check: "monotonic-misuse", Detail: "budget monotonicity only holds for the conventional flow"}}
	}
	var out []Violation
	prevApplied := -1
	prevThr := math.Inf(-1)
	for _, t := range thresholds {
		if t < prevThr {
			return append(out, Violation{Check: "monotonic-misuse", Detail: "thresholds must be ascending"})
		}
		s := spec
		s.Threshold = t
		res, _, err := Execute(g, s)
		if err != nil {
			return append(out, Violation{Check: "monotonic-run", Detail: err.Error()})
		}
		if vs := Verify(g, s, res); len(vs) > 0 {
			out = append(out, vs...)
		}
		if res.Stats.Applied < prevApplied {
			out = append(out, Violation{Check: "budget-monotonic", Detail: fmt.Sprintf(
				"threshold %v applied %d LACs, smaller threshold %v applied %d",
				t, res.Stats.Applied, prevThr, prevApplied)})
		}
		prevApplied = res.Stats.Applied
		prevThr = t
	}
	return out
}

// CheckWCEBoundMonotonic runs the WCE-constrained conventional flow at each
// bound (must be sorted ascending) and checks the metamorphic property that
// loosening the bound is monotone in achievable area savings: the greedy
// candidate ranking is bound-independent and a certification that fails at
// bound B fails at every smaller bound, so a run at a larger bound applies
// a superset prefix — its applied count is non-decreasing and its emitted
// gate count non-increasing. Like CheckBudgetMonotonic this is a theorem
// only for FlowConventional (dual-phase trajectories are
// threshold-dependent), and only with an unlimited certification conflict
// budget (an exhausted budget at one bound says nothing about another).
func CheckWCEBoundMonotonic(g *aig.Graph, spec RunSpec, bounds []uint64) []Violation {
	if spec.Flow != core.FlowConventional {
		return []Violation{{Check: "wce-monotonic-misuse", Detail: "WCE-bound monotonicity only holds for the conventional flow"}}
	}
	if spec.CertConflictLimit != 0 {
		return []Violation{{Check: "wce-monotonic-misuse", Detail: "conflict-limited certification is not monotone in the bound"}}
	}
	var out []Violation
	prevApplied := -1
	prevGates := -1
	var prevBound uint64
	first := true
	for _, b := range bounds {
		if !first && b < prevBound {
			return append(out, Violation{Check: "wce-monotonic-misuse", Detail: "bounds must be ascending"})
		}
		s := spec
		s.Metric = metric.WCE
		s.WCEBound = b
		s.Threshold = float64(b)
		res, _, err := Execute(g, s)
		if err != nil {
			return append(out, Violation{Check: "wce-monotonic-run", Detail: err.Error()})
		}
		if vs := Verify(g, s, res); len(vs) > 0 {
			out = append(out, vs...)
		}
		if res.Stats.Applied < prevApplied {
			out = append(out, Violation{Check: "wce-bound-monotonic", Detail: fmt.Sprintf(
				"bound %d applied %d LACs, tighter bound %d applied %d",
				b, res.Stats.Applied, prevBound, prevApplied)})
		}
		gates := res.Graph.NumAnds()
		if prevGates >= 0 && gates > prevGates {
			out = append(out, Violation{Check: "wce-area-monotonic", Detail: fmt.Sprintf(
				"bound %d emitted %d gates, tighter bound %d emitted %d",
				b, gates, prevBound, prevGates)})
		}
		prevApplied = res.Stats.Applied
		prevGates = gates
		prevBound = b
		first = false
	}
	return out
}
