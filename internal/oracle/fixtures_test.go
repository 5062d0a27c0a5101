package oracle

import (
	"testing"

	"dpals/internal/fault"
)

// shrunkDir points at the committed fixture set produced by past alscheck
// campaigns (cmd/alscheck -emit-fault-repros). Each fixture is a shrunk
// circuit plus the exact run spec on which a seeded fault was detected.
const shrunkDir = "../../testdata/shrunk"

// TestReplayShrunkFixtures replays every committed shrunk repro and
// requires the original detection to still fire, via the check its
// sidecar records. This is the permanent
// regression net: if an engine change makes any of these faults
// unobservable again (or a harness change weakens a check), the replay
// fails with the fixture name and the signal that used to catch it.
func TestReplayShrunkFixtures(t *testing.T) {
	repros, err := LoadRepros(shrunkDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatalf("no fixtures under %s — the committed campaign output is missing", shrunkDir)
	}
	kinds := map[fault.Kind]bool{}
	small := 0
	for _, r := range repros {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			if got := r.Graph.NumAnds(); got != r.Spec.Ands {
				t.Errorf("fixture has %d ANDs, sidecar says %d", got, r.Spec.Ands)
			}
			if err := r.Graph.Check(); err != nil {
				t.Fatalf("fixture circuit invalid: %v", err)
			}
			det := r.Replay()
			if !det.Detected {
				t.Errorf("fault %s no longer detected (was caught by %s: %s)",
					r.Spec.Run.Fault, r.Spec.Check, r.Spec.Detail)
			} else if det.How != r.Spec.Check {
				t.Errorf("fault %s detected via %s, sidecar records %s: %s",
					r.Spec.Run.Fault, det.How, r.Spec.Check, r.Spec.Detail)
			}
		})
		kinds[r.Spec.Run.Fault] = true
		if r.Graph.NumAnds() <= 32 {
			small++
		}
	}
	// Acceptance criteria from the harness design: every seeded fault kind
	// has at least one committed repro, and at least one of them is a
	// genuinely small (≤ 32 AND) shrunk circuit.
	for _, k := range fault.Kinds() {
		if !kinds[k] {
			t.Errorf("no committed fixture for fault kind %s", k)
		}
	}
	if small == 0 {
		t.Error("no committed fixture is ≤ 32 ANDs — shrinking regressed")
	}
}
