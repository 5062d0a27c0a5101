// Command alscheck is the randomized differential-verification campaign
// for the synthesis engine. It generates reproducible random circuits,
// runs every selected flow on them, and cross-checks each run against
// independent oracles:
//
//   - the reported error vs a from-scratch recompute on the run's own
//     training patterns (catches bookkeeping desyncs),
//   - the error budget, including for mid-run-cancelled best-so-far
//     results,
//   - the exhaustively enumerated exact error (circuits ≤ 20 inputs):
//     equality when the run's patterns enumerate the inputs, a
//     Hoeffding bound for Monte-Carlo,
//   - SAT-certified worst-case error vs enumerated worst-case error,
//   - bit-identical results across thread counts, and validity of
//     cancelled runs,
//   - budget monotonicity of the conventional flow.
//
// With -faults it additionally seeds every engine fault kind
// (internal/fault) and requires each to be caught by some cross-check —
// the harness's own self-test. Failing circuits are shrunk to minimal
// repros and written to -out as .aag + .json pairs that the regression
// suite replays.
//
// Usage:
//
//	alscheck -seeds 1:50 -flows dpsa,conventional -v
//	alscheck -seeds 1:200 -faults=false          # pure differential sweep
//	alscheck -emit-fault-repros -out testdata/shrunk
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dpals"
	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/fault"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/oracle"
)

var verbose bool

func logf(format string, args ...any) {
	if verbose {
		fmt.Printf(format+"\n", args...)
	}
}

func main() {
	seeds := flag.String("seeds", "1:20", "seed range a:b (inclusive) for random circuits")
	flows := flag.String("flows", "conventional,vecbee,dp,dpsa", "comma-separated flows to exercise")
	metrics := flag.String("metrics", "er,med,mse", "comma-separated error metrics")
	patterns := flag.Int("patterns", 1024, "Monte-Carlo patterns per run")
	maxPIs := flag.Int("max-pis", 12, "largest random-circuit input count (exact checks need ≤ 20)")
	maxIters := flag.Int("max-iters", 30, "applied-LAC cap per run")
	faults := flag.Bool("faults", true, "seed every fault kind and require detection")
	shrink := flag.Bool("shrink", true, "shrink failing cases to minimal repros")
	shrinkTrials := flag.Int("shrink-trials", 300, "predicate-evaluation budget per shrink")
	out := flag.String("out", "testdata/shrunk", "directory for shrunk repro fixtures")
	emitFaultRepros := flag.Bool("emit-fault-repros", false,
		"also shrink+save one repro per detected fault kind (fixture generation)")
	certStats := flag.String("cert-stats", "",
		"write campaign-wide WCE certification accounting (runs, runs certified by enumeration, SAT calls, rollbacks) as JSON to this file")
	flag.BoolVar(&verbose, "v", false, "log every campaign step")
	flag.Parse()

	lo, hi, err := parseRange(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alscheck:", err)
		os.Exit(2)
	}
	flowList, err := parseList(*flows, dpals.ParseFlow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alscheck:", err)
		os.Exit(2)
	}
	metricList, err := parseList(*metrics, dpals.ParseMetric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alscheck:", err)
		os.Exit(2)
	}

	c := &campaign{
		flows: flowList, metrics: metricList,
		patterns: *patterns, maxIters: *maxIters,
		shrink: *shrink, shrinkTrials: *shrinkTrials, outDir: *out,
		detectedKinds: map[fault.Kind]bool{},
	}
	for seed := lo; seed <= hi; seed++ {
		c.runSeed(seed, *maxPIs, *faults, *emitFaultRepros)
	}

	fmt.Printf("alscheck: %d runs, %d checks, %d failures\n", c.runs, c.checks, c.failures)
	if c.cert.Runs > 0 {
		fmt.Printf("  WCE cert: %d runs (%d by enumeration), %d SAT calls, %d rollbacks\n",
			c.cert.Runs, c.cert.EnumRuns, c.cert.Calls, c.cert.Rollbacks)
	}
	if *certStats != "" {
		data, err := json.MarshalIndent(c.cert, "", "  ")
		if err == nil {
			err = os.WriteFile(*certStats, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "alscheck: cert stats:", err)
			c.failures++
		}
	}
	if *faults {
		for _, k := range fault.Kinds() {
			if c.detectedKinds[k] {
				fmt.Printf("  fault %-20s detected\n", k)
			} else {
				fmt.Printf("  fault %-20s NEVER DETECTED\n", k)
				c.failures++
			}
		}
	}
	if c.failures > 0 {
		os.Exit(1)
	}
}

type campaign struct {
	flows   []core.Flow
	metrics []metric.Kind

	patterns, maxIters int
	shrink             bool
	shrinkTrials       int
	outDir             string
	runs, checks       int

	failures      int
	detectedKinds map[fault.Kind]bool
	cert          certSummary
}

// certSummary is the campaign-wide WCE certification accounting exported
// by -cert-stats (a CI artifact: trends in SAT-call counts and rollbacks
// across nightly sweeps). EnumRuns counts the runs whose patterns
// enumerate the input space: they certify by that enumeration and spend
// no SAT call, so Calls comes from the other Runs − EnumRuns.
type certSummary struct {
	Runs      int `json:"wce_runs"`
	EnumRuns  int `json:"enum_runs"`
	Calls     int `json:"cert_calls"`
	Rollbacks int `json:"cert_rollbacks"`
}

// noteCert folds one WCE run of g's certification stats into the summary.
func (c *campaign) noteCert(g *aig.Graph, spec oracle.RunSpec, res *core.Result) {
	if spec.Metric != metric.WCE || res == nil {
		return
	}
	c.cert.Runs++
	if core.CertifiesByEnumeration(g, spec.Options.Resolved()) {
		c.cert.EnumRuns++
	}
	c.cert.Calls += res.Stats.CertCalls
	c.cert.Rollbacks += res.Stats.CertRollbacks
}

// circuitFor derives a varied but reproducible random circuit from the
// seed: sizes cycle through a few shapes so one sweep covers narrow-deep
// and wide-shallow graphs.
func circuitFor(seed int64, maxPIs int) *aig.Graph {
	shapes := []struct{ pis, pos, ands int }{
		{6, 4, 40}, {8, 6, 60}, {10, 8, 90}, {12, 6, 120}, {7, 7, 50},
	}
	s := shapes[int(seed)%len(shapes)]
	if s.pis > maxPIs {
		s.pis = maxPIs
	}
	return gen.Random(seed, s.pis, s.pos, s.ands)
}

// thresholdFor picks a mid-range budget so runs neither finish instantly
// nor exhaust the circuit.
func thresholdFor(k metric.Kind, g *aig.Graph) float64 {
	r := metric.ReferenceError(g.NumPOs())
	switch k {
	case metric.ER:
		return 0.15
	case metric.MSE:
		return r * r
	case metric.MHD:
		return 0.5
	case metric.WCE:
		return float64(metric.ReferenceWCEBound(g.NumPOs()))
	default: // MED
		return r
	}
}

// wceSpec upgrades a spec to the WCE-constrained flow on g. The reference
// bound is deliberately tight: candidates that squeeze under the SAMPLED
// estimate near the bound are the ones whose true worst case is most
// likely to exceed it, which is exactly the traffic the certification step
// — and the skip-wce-cert fault detection — needs.
func wceSpec(spec oracle.RunSpec, g *aig.Graph) oracle.RunSpec {
	spec.Metric = metric.WCE
	spec.WCEBound = metric.ReferenceWCEBound(g.NumPOs())
	spec.Threshold = float64(spec.WCEBound)
	return spec
}

func (c *campaign) runSeed(seed int64, maxPIs int, faults, emitFaultRepros bool) {
	g := circuitFor(seed, maxPIs)
	logf("seed %d: %s (%d PIs, %d POs, %d ANDs)", seed, g.Name, g.NumPIs(), g.NumPOs(), g.NumAnds())
	for _, flow := range c.flows {
		for _, mk := range c.metrics {
			spec := oracle.RunSpec{Options: core.Options{
				Flow: flow, Metric: mk, Threshold: thresholdFor(mk, g),
				Patterns: c.patterns, Seed: seed, Threads: 1, MaxIters: c.maxIters,
			}}
			if mk == metric.WCE {
				spec = wceSpec(spec, g)
			}
			c.differential(g, spec)
		}
	}
	// Metamorphic extras rotate across seeds to keep a sweep affordable.
	base := oracle.RunSpec{Options: core.Options{
		Flow: core.FlowDPSA, Metric: metric.MED, Threshold: thresholdFor(metric.MED, g),
		Patterns: c.patterns, Seed: seed, Threads: 1, MaxIters: c.maxIters,
	}}
	switch seed % 3 {
	case 0:
		c.exhaustiveCheck(g, base)
	case 1:
		c.wceCheck(g, base)
	case 2:
		spec := base
		spec.Flow = core.FlowConventional
		t := spec.Threshold
		c.report(g, spec, oracle.CheckBudgetMonotonic(g, spec, []float64{t / 4, t, t * 4}), "budget-monotonic ladder")
		// Same metamorphic idea under the WCE-constrained flow: loosening the
		// certified bound must be monotone in applied LACs and gate count.
		ws := wceSpec(spec, g)
		b := ws.WCEBound
		c.report(g, ws, oracle.CheckWCEBoundMonotonic(g, ws, []uint64{max(b/2, 1), b, 2 * b}), "wce-bound-monotonic ladder")
	}
	if faults {
		c.faultSweep(g, base, emitFaultRepros)
	}
}

// differential runs one spec plus its metamorphic variants: thread-count
// determinism (compared down to the per-iteration evaluation traces), and
// a mid-run cancellation.
func (c *campaign) differential(g *aig.Graph, spec oracle.RunSpec) {
	ref := oracle.ExecuteTraced(g, spec)
	c.runs++
	if ref.Err != nil {
		c.fail(g, spec, "panic", ref.Err.Error())
		return
	}
	c.report(g, spec, oracle.Verify(g, spec, ref.Result), "clean run")
	c.noteCert(g, spec, ref.Result)

	all := spec
	all.Threads = 0
	vout := oracle.ExecuteTraced(g, all)
	c.runs++
	c.checks++
	if vout.Err != nil {
		c.fail(g, all, "panic", vout.Err.Error())
	} else if d := oracle.DivergesOutcome(ref, vout); d != "" {
		c.fail(g, all, "determinism-threads-all", d)
	}

	cancel := spec
	cancel.CancelAfter = 2
	cres, _, err := oracle.Execute(g, cancel)
	c.runs++
	if err != nil {
		c.fail(g, cancel, "panic", err.Error())
		return
	}
	c.report(g, cancel, oracle.Verify(g, cancel, cres), "cancelled run")
	c.noteCert(g, cancel, cres)
}

func (c *campaign) exhaustiveCheck(g *aig.Graph, base oracle.RunSpec) {
	if g.NumPIs() > oracle.MaxPIs {
		return
	}
	spec := base
	spec.Patterns = 1 << g.NumPIs()
	res, _, err := oracle.Execute(g, spec)
	c.runs++
	if err != nil {
		c.fail(g, spec, "panic", err.Error())
		return
	}
	c.report(g, spec, oracle.Verify(g, spec, res), "exhaustive run")
}

func (c *campaign) wceCheck(g *aig.Graph, base oracle.RunSpec) {
	res, _, err := oracle.Execute(g, base)
	c.runs++
	if err != nil {
		c.fail(g, base, "panic", err.Error())
		return
	}
	c.checks++
	if v := oracle.CrossCheckWCE(g, res.Graph); v != nil {
		c.fail(g, base, v.Check, v.Detail)
	}
}

// faultSweep seeds each not-yet-detected fault kind on this circuit. A
// kind can be an unobservable "equivalent mutant" under one configuration
// yet plainly detectable under another, so each kind is scanned across
// several flow/metric combinations before giving up on the circuit.
func (c *campaign) faultSweep(g *aig.Graph, base oracle.RunSpec, emit bool) {
	specs := []oracle.RunSpec{base}
	// SASIMI wire substitutions grow a node's fanout, which is what makes a
	// skipped incremental cut repair observable (constant LACs only shrink
	// fanout, leaving stale cuts score-equivalent).
	sasimi := base
	sasimi.UseConstLACs, sasimi.UseSASIMILACs = true, true
	specs = append(specs, sasimi)
	for _, v := range []struct {
		flow core.Flow
		mk   metric.Kind
	}{
		{core.FlowDP, metric.ER},
		{core.FlowConventional, metric.MED},
		{core.FlowVECBEE, metric.ER},
	} {
		s := base
		s.Flow = v.flow
		s.Metric = v.mk
		s.Threshold = thresholdFor(v.mk, g)
		specs = append(specs, s)
	}
	// The WCE-constrained flow is where skip-wce-cert lives: a skipped
	// certification is observable exactly when the SAMPLED worst case of the
	// emitted circuit understates the true one — then the genuine SAT calls
	// would have refused (or tightened past) what the skipped ones claimed,
	// and the exhaustive oracle flags wce-cert-unsound. A 1024-pattern
	// budget enumerates a ≤ 10-PI circuit and rarely misses the worst-case
	// input of a 12-PI one, which would make the fault an equivalent mutant
	// everywhere; a deliberately thin sample (64 patterns, below 2^PIs for
	// every shape but the 6-input one) restores the gap between sampled and
	// true that the certification step exists to close.
	wdp := wceSpec(base, g)
	wdp.Flow = core.FlowDP
	wdp.Patterns = 64
	wconv := wceSpec(base, g)
	wconv.Flow = core.FlowConventional
	wconv.Patterns = 64
	specs = append(specs, wdp, wconv)
	for _, kind := range fault.Kinds() {
		if c.detectedKinds[kind] && !emit {
			continue
		}
		c.checks++
		detected := false
		for _, spec := range specs {
			det, nth := oracle.ScanFault(g, spec, kind, 25)
			if !det.Detected {
				continue
			}
			detected = true
			first := !c.detectedKinds[kind]
			c.detectedKinds[kind] = true
			logf("  fault %s: detected at site %d of %s/%s via %s", kind, nth, spec.Flow, spec.Metric, det.How)
			if emit && first {
				s := spec
				s.Fault = kind
				s.FaultNth = nth
				c.saveShrunk(g, s, det)
			}
			break
		}
		if !detected {
			logf("  fault %s: no detectable site on this circuit", kind)
		}
	}
}

// report counts violations of one verified run and shrinks on failure.
func (c *campaign) report(g *aig.Graph, spec oracle.RunSpec, vs []oracle.Violation, what string) {
	c.checks++
	if len(vs) == 0 {
		logf("  %s %s/%s: ok (%s)", spec.Flow, spec.Metric, seedTag(spec), what)
		return
	}
	for _, v := range vs {
		c.fail(g, spec, v.Check, v.Detail)
	}
}

func (c *campaign) fail(g *aig.Graph, spec oracle.RunSpec, check, detail string) {
	c.failures++
	fmt.Fprintf(os.Stderr, "FAIL %s %s/%s [%s]: %s\n", g.Name, spec.Flow, spec.Metric, check, detail)
	if c.shrink {
		c.saveShrunk(g, spec, oracle.Detection{Detected: true, How: check, Detail: detail})
	}
}

// saveShrunk minimises g under "the spec still fails on it" and writes
// the fixture pair. The sidecar records how the shrunk circuit replays,
// which need not be how the full one was caught (seen); seen is kept only
// when the shrunk circuit does not reproduce the failure.
func (c *campaign) saveShrunk(g *aig.Graph, spec oracle.RunSpec, seen oracle.Detection) {
	pred := func(cand *aig.Graph) bool {
		clean := oracle.CleanOutcome(cand, spec)
		if clean.Err != nil {
			return false
		}
		return oracle.DetectFault(cand, spec, &clean).Detected
	}
	if spec.Fault == fault.None {
		// Unseeded failure: the predicate is "Verify still flags the run".
		pred = func(cand *aig.Graph) bool {
			res, _, err := oracle.Execute(cand, spec)
			if err != nil {
				return true // a panic is certainly still a failure
			}
			return len(oracle.Verify(cand, spec, res)) > 0
		}
	}
	if !pred(g) {
		logf("  shrink: failure does not reproduce standalone; keeping full circuit")
	}
	small, trials := oracle.Shrink(g, pred, oracle.ShrinkOptions{MaxTrials: c.shrinkTrials})
	name := reproName(spec, g)
	det := oracle.Repro{Spec: oracle.ReproSpec{Run: spec}, Graph: small}.Replay()
	if !det.Detected {
		det = seen
	}
	// A panic's detail carries the goroutine stack; its first line names it.
	detail, _, _ := strings.Cut(det.Detail, "\n")
	rs := oracle.ReproSpec{Run: spec, Check: det.How, Detail: detail}
	if err := oracle.SaveRepro(c.outDir, name, rs, small); err != nil {
		fmt.Fprintf(os.Stderr, "alscheck: saving repro %s: %v\n", name, err)
		return
	}
	fmt.Printf("  shrunk %s: %d → %d ANDs in %d trials → %s/%s.aag\n",
		name, g.NumAnds(), small.NumAnds(), trials, c.outDir, name)
}

func reproName(spec oracle.RunSpec, g *aig.Graph) string {
	kind := string(spec.Fault)
	if kind == "" {
		kind = "genuine"
	}
	return fmt.Sprintf("%s-%s-%s-s%d", kind, strings.ToLower(spec.Flow.String()), strings.ToLower(spec.Metric.String()), spec.Seed)
}

func seedTag(spec oracle.RunSpec) string { return "s" + strconv.FormatInt(spec.Seed, 10) }

func parseRange(s string) (int64, int64, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad seed range %q (want a:b)", s)
	}
	lo, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad seed %q", parts[0])
	}
	hi, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad seed %q", parts[1])
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("empty seed range %q", s)
	}
	return lo, hi, nil
}

// parseList parses a comma-separated list with parse, one trimmed item
// at a time.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
