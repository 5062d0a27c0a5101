package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dpals/internal/aig"
	"dpals/internal/aiger"
)

// ReproSpec is the JSON sidecar of a shrunk repro: the circuit lives in
// <name>.aag, everything needed to replay the failing run lives here.
type ReproSpec struct {
	Run RunSpec `json:"run"`
	// Check names the cross-check (or "panic"/"divergence" signal) that
	// originally flagged the run; Detail is its message at capture time.
	Check  string `json:"check"`
	Detail string `json:"detail,omitempty"`
	// Ands records the shrunk circuit's AND count at capture time —
	// informational, the .aag file is authoritative.
	Ands int `json:"ands"`
}

// Repro is a loaded fixture: a shrunk circuit plus its replay spec.
type Repro struct {
	Name  string
	Spec  ReproSpec
	Graph *aig.Graph
}

// SaveRepro writes <dir>/<name>.aag and <dir>/<name>.json, creating dir
// if needed. Names should be stable and descriptive (the campaign uses
// "<fault>-s<seed>" style); an existing fixture of the same name is
// overwritten.
func SaveRepro(dir, name string, spec ReproSpec, g *aig.Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spec.Ands = g.NumAnds()
	f, err := os.Create(filepath.Join(dir, name+".aag"))
	if err != nil {
		return err
	}
	if err := aiger.Write(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	js, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(js, '\n'), 0o644)
}

// LoadRepros reads every <name>.aag + <name>.json pair under dir, sorted
// by name. A missing directory yields an empty slice (a fresh checkout
// before the first campaign has no fixtures); an .aag without its sidecar
// (or vice versa) is an error — fixtures are only meaningful as pairs —
// and so is a sidecar key that ReproSpec does not define.
func LoadRepros(dir string) ([]Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Repro
	seen := map[string]bool{}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".aag")
		if !ok {
			name, ok = strings.CutSuffix(e.Name(), ".json")
		}
		if e.IsDir() || !ok || seen[name] {
			continue
		}
		seen[name] = true
		f, err := os.Open(filepath.Join(dir, name+".aag"))
		if err != nil {
			return nil, fmt.Errorf("oracle: repro %s has no circuit: %w", name, err)
		}
		g, err := aiger.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("oracle: repro %s: %w", name, err)
		}
		js, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			return nil, fmt.Errorf("oracle: repro %s has no sidecar: %w", name, err)
		}
		// Unknown keys are errors: a misspelled or stale key would silently
		// replay a different run than the one captured.
		dec := json.NewDecoder(bytes.NewReader(js))
		dec.DisallowUnknownFields()
		var spec ReproSpec
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("oracle: repro %s sidecar: %w", name, err)
		}
		out = append(out, Repro{Name: name, Spec: spec, Graph: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Replay re-executes a fixture and reports the detection outcome. A
// fixture captured from a fault-seeded failure replays the fault and must
// be detected again; a fixture capturing a genuine (unseeded) failure
// must still produce violations.
func (r Repro) Replay() Detection {
	if r.Spec.Run.Fault != "" {
		clean := CleanOutcome(r.Graph, r.Spec.Run)
		if clean.Err != nil {
			return Detection{Detected: true, Fired: true, How: "panic", Detail: clean.Err.Error()}
		}
		return DetectFault(r.Graph, r.Spec.Run, &clean)
	}
	res, _, err := Execute(r.Graph, r.Spec.Run)
	if err != nil {
		return Detection{Detected: true, Fired: true, How: "panic", Detail: err.Error()}
	}
	if vs := Verify(r.Graph, r.Spec.Run, res); len(vs) > 0 {
		return Detection{Detected: true, Fired: true, How: vs[0].Check, Detail: vs[0].Detail}
	}
	return Detection{}
}
