package server

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"dpals"
	"dpals/internal/gen"
)

// jobFixture is the committed request body that CI's alsd-smoke job and
// README's quick start submit with curl.
const jobFixture = "../../testdata/alsd/mult3x3-dp.json"

// TestCommittedJobFixture keeps the committed request body valid: it must
// decode as the handler decodes it, pass parseJob, and carry the 3×3
// unsigned multiplier as a DP job under a 5% error rate, as its name and
// the documents that use it say.
func TestCommittedJobFixture(t *testing.T) {
	data, err := os.ReadFile(jobFixture)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeJob(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode %s: %v", jobFixture, err)
	}
	c, opt, err := parseJob(&req)
	if err != nil {
		t.Fatalf("parseJob rejects %s: %v", jobFixture, err)
	}
	if got, want := c.Graph().StructuralDigest(), gen.MultU(3, 3).StructuralDigest(); got != want {
		t.Errorf("circuit digest %x, want gen.MultU(3, 3)'s %x", got, want)
	}
	if opt.Flow != dpals.DP || opt.Metric != dpals.ER || opt.Threshold != 0.05 {
		t.Errorf("flow %v, metric %v, threshold %v; want DP, ER, 0.05", opt.Flow, opt.Metric, opt.Threshold)
	}
}

// FuzzParseJob drives the request path from raw body bytes to a cache
// key: decode exactly as the handler does, then parseJob. Whatever the
// body, parsing must not panic, and a job it accepts must carry options
// that validate against its circuit and a cache key that does not depend
// on whether the options were resolved first.
func FuzzParseJob(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		body, err := json.Marshal(smallJob(f, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	wce := smallJob(f, 1)
	wce["metric"], wce["wce_bound"], wce["cert_conflict_limit"] = "wce", 4, 1000
	blif := map[string]any{
		"circuit": ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
		"flow":    "dpsa", "metric": "mse", "threshold": 0.5, "weights": []float64{1},
		"input_probabilities": []float64{0.5, 0.25}, "patterns": 4,
	}
	for _, body := range []map[string]any{wce, blif} {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fixture, err := os.ReadFile(jobFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	// A budget above core.MaxPatterns must be refused: sampling it would
	// size every node vector at about 250 MB.
	huge := smallJob(f, 1)
	huge["patterns"] = 2000000000
	data, err := json.Marshal(huge)
	if err != nil {
		f.Fatal(err)
	}
	req, err := decodeJob(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := parseJob(&req); err == nil {
		f.Fatal("parseJob accepts a pattern budget of 2000000000")
	}
	f.Add(data)
	for _, bad := range []string{
		``, `{`, `null`, `[]`, `{"circuit": 7}`,
		`{"circuit": "aag 1 1 0 1 0\n2\n2\n", "threshold": -1}`,
		`{"circuit": "aag 1 1 0 1 0\n2\n2\n", "format": "verilog"}`,
		`{"circuit": "aag 2000000000 1 0 1 0\n2\n2\n"}`,
		`{"circuit": "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n", "metric": "wce"}`,
		`{"circuit": "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n", "weights": [1, 2]}`,
	} {
		f.Add([]byte(bad))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		req, err := decodeJob(bytes.NewReader(data))
		if err != nil {
			return
		}
		c, opt, err := parseJob(&req)
		if err != nil {
			return
		}
		if err := opt.Validate(c.NumOutputs()); err != nil {
			t.Fatalf("parseJob accepted options that fail Validate: %v", err)
		}
		if k, kr := cacheKey(c, opt), cacheKey(c, opt.Resolved()); k != kr {
			t.Fatalf("cache key %s changes to %s when the options are resolved first", k, kr)
		}
	})
}
