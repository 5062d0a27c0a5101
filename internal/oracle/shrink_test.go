package oracle

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/fault"
	"dpals/internal/gen"
	"dpals/internal/metric"
)

// TestShrinkStructuralPredicate drives the shrinker with a pure
// structural predicate — no synthesis runs — so the minimisation
// machinery itself is tested deterministically.
func TestShrinkStructuralPredicate(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	start := g.NumAnds()
	if start < 40 {
		t.Fatalf("testbed too small: %d ANDs", start)
	}
	// "Fails" = still has at least 5 AND nodes: the greedy minimum is 5.
	small, trials := Shrink(g, func(c *aig.Graph) bool { return c.NumAnds() >= 5 }, ShrinkOptions{MaxTrials: 2000})
	if small.NumAnds() != 5 {
		t.Errorf("shrunk to %d ANDs, want the predicate minimum 5 (trials %d)", small.NumAnds(), trials)
	}
	if small.NumPOs() < 1 || small.NumPIs() < 1 {
		t.Errorf("shrunk circuit lost its interface: %d PIs, %d POs", small.NumPIs(), small.NumPOs())
	}
	if err := small.Check(); err != nil {
		t.Errorf("shrunk circuit invalid: %v", err)
	}
}

// TestShrinkRespectsTrialBudget checks that MaxTrials truly bounds the
// number of predicate calls.
func TestShrinkRespectsTrialBudget(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	calls := 0
	_, trials := Shrink(g, func(c *aig.Graph) bool { calls++; return true }, ShrinkOptions{MaxTrials: 25})
	if calls != trials {
		t.Errorf("reported %d trials but predicate ran %d times", trials, calls)
	}
	if calls > 25 {
		t.Errorf("predicate ran %d times, budget 25", calls)
	}
}

// faultPredicate builds the real campaign predicate: the candidate still
// makes the seeded fault detectable (via violations, panic, or divergence
// from its own clean run).
func faultPredicate(spec RunSpec) Predicate {
	return func(c *aig.Graph) bool {
		clean := CleanOutcome(c, spec)
		if clean.Err != nil {
			return false
		}
		return DetectFault(c, spec, &clean).Detected
	}
}

// TestShrinkSeededFailure is the acceptance-criteria test: seed a fault,
// confirm the harness detects it, then shrink the failing circuit to a
// small repro (≤ 32 AND nodes) on which the failure still reproduces.
func TestShrinkSeededFailure(t *testing.T) {
	g := gen.Random(11, 10, 8, 90)
	base := RunSpec{Options: core.Options{Flow: core.FlowConventional, Metric: metric.MED, Threshold: 10,
		Patterns: 256, Seed: 3, Threads: 1, MaxIters: 30}}
	det, nth := ScanFault(g, base, fault.FlipSimBit, 25)
	if !det.Detected {
		t.Fatalf("flip-sim-bit not detectable on the shrink testbed")
	}
	spec := base
	spec.Fault = fault.FlipSimBit
	spec.FaultNth = nth
	pred := faultPredicate(spec)
	if !pred(g) {
		t.Fatal("predicate does not hold on the unshrunk circuit")
	}
	small, trials := Shrink(g, pred, ShrinkOptions{MaxTrials: 300})
	t.Logf("shrunk %d → %d ANDs, %d PIs, %d POs in %d trials",
		g.NumAnds(), small.NumAnds(), small.NumPIs(), small.NumPOs(), trials)
	if small.NumAnds() > 32 {
		t.Errorf("shrunk repro has %d ANDs, want ≤ 32", small.NumAnds())
	}
	if small.NumAnds() >= g.NumAnds() {
		t.Errorf("shrinker made no progress: %d → %d ANDs", g.NumAnds(), small.NumAnds())
	}
	if !pred(small) {
		t.Error("failure does not reproduce on the shrunk circuit")
	}
	if err := small.Check(); err != nil {
		t.Errorf("shrunk circuit invalid: %v", err)
	}
}

// TestReproRoundTrip saves two fixtures and loads them back: a replayable
// misreport-error repro with SASIMI LACs and explicit output weights, and
// a WCE spec that sets the certification knobs, the structural knobs and
// CancelAfter. Both sidecars must load reflect.DeepEqual to what was
// saved, and the replayable one must still be detected.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := gen.Random(3, 8, 6, 60)
	spec := RunSpec{Options: core.Options{Flow: core.FlowDPSA, Metric: metric.MED, Threshold: 6,
		Weights: metric.TwosComplementWeights(g.NumPOs()), Patterns: 256, Seed: 1, Threads: 1,
		UseConstLACs: true, UseSASIMILACs: true, MaxIters: 30}}
	det, nth := ScanFault(g, spec, fault.MisreportError, 5)
	if !det.Detected {
		t.Fatal("misreport-error not detectable")
	}
	spec.Fault = fault.MisreportError
	spec.FaultNth = nth
	knobs := RunSpec{Options: core.Options{Flow: core.FlowDP, Metric: metric.WCE, Threshold: 6,
		Patterns: 64, Seed: 2, Threads: 2, InputProbabilities: []float64{0.25, 0.75},
		UseConstLACs: true, UseSASIMILACs: true, MaxLACsPerNode: 4,
		WCEBound: 6, CertEvery: 3, CertConflictLimit: 5000,
		DepthLimit: 2, M: 40, N: 12, MaxIters: 30},
		CancelAfter: 3, Fault: fault.SkipWCECert, FaultNth: 2}
	saved := map[string]ReproSpec{
		"misreport-s1": {Run: spec, Check: det.How, Detail: det.Detail},
		"knobs-s2":     {Run: knobs, Check: "wce-cert-unsound"},
	}
	for name, rs := range saved {
		if err := SaveRepro(dir, name, rs, g); err != nil {
			t.Fatal(err)
		}
	}
	repros, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 2 || repros[0].Name != "knobs-s2" || repros[1].Name != "misreport-s1" {
		t.Fatalf("loaded %d repros, want [knobs-s2 misreport-s1]", len(repros))
	}
	for _, r := range repros {
		want := saved[r.Name]
		want.Ands = g.NumAnds()
		if !reflect.DeepEqual(r.Spec, want) {
			t.Errorf("%s: sidecar did not round-trip:\n got %+v\nwant %+v", r.Name, r.Spec, want)
		}
		if r.Graph.NumPIs() != g.NumPIs() || r.Graph.NumPOs() != g.NumPOs() {
			t.Errorf("%s: circuit did not round-trip: %d PIs %d POs", r.Name, r.Graph.NumPIs(), r.Graph.NumPOs())
		}
	}
	if replay := repros[1].Replay(); !replay.Detected {
		t.Error("replayed repro no longer detected")
	}
	// A missing directory is an empty fixture set, not an error.
	none, err := LoadRepros(dir + "/does-not-exist")
	if err != nil || len(none) != 0 {
		t.Errorf("missing dir: %v, %d repros", err, len(none))
	}
}

// TestLoadReprosRejectsUnknownKeys: a sidecar with a key RunSpec does not
// define — here the pre-Options spelling maxIters — must fail to load,
// naming the key and the fixture, instead of replaying a run that silently
// lost its iteration cap.
func TestLoadReprosRejectsUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	g := gen.Random(3, 8, 6, 60)
	if err := SaveRepro(dir, "stale", ReproSpec{}, g); err != nil {
		t.Fatal(err)
	}
	js := `{"run": {"flow": 4, "metric": 2, "threshold": 4, "maxIters": 30}, "check": "budget", "ands": 1}`
	if err := os.WriteFile(filepath.Join(dir, "stale.json"), []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRepros(dir)
	if err == nil || !strings.Contains(err.Error(), `"maxIters"`) || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("LoadRepros = %v, want an error naming key \"maxIters\" and fixture stale", err)
	}
}

// A sidecar whose circuit is gone (say, an .aag deleted by hand) must fail
// the load by name, not vanish from the fixture set.
func TestLoadReprosRejectsOrphanedSidecar(t *testing.T) {
	dir := t.TempDir()
	js := `{"run": {"flow": 4, "metric": 2, "threshold": 4}, "check": "budget", "ands": 1}`
	if err := os.WriteFile(filepath.Join(dir, "lone.json"), []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadRepros(dir)
	if err == nil || !strings.Contains(err.Error(), "lone") {
		t.Fatalf("LoadRepros = %d repros, %v; want an error naming fixture lone", len(rs), err)
	}
}
