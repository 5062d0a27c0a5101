package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

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

// jobSeeds returns the seed bodies of the request-path fuzz targets: three
// small DP jobs, a capped WCE job, a BLIF job with input probabilities, the
// committed fixture, a job whose pattern budget parseJob must refuse, and
// malformed or invalid bodies.
func jobSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for seed := int64(0); seed < 3; seed++ {
		body, err := json.Marshal(smallJob(tb, seed))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	wce := smallJob(tb, 1)
	wce["metric"], wce["wce_bound"], wce["cert_conflict_limit"] = "wce", 4, 1000
	blif := map[string]any{
		"circuit": ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
		"flow":    "dpsa", "metric": "mse", "threshold": 0.5, "weights": []float64{1},
		"input_probabilities": []float64{0.5, 0.25}, "patterns": 4,
	}
	for _, body := range []map[string]any{wce, blif} {
		data, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	fixture, err := os.ReadFile(jobFixture)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, fixture)
	// A budget above core.MaxPatterns must be refused: sampling it would
	// size every node vector at about 250 MB.
	huge := smallJob(tb, 1)
	huge["patterns"] = 2000000000
	data, err := json.Marshal(huge)
	if err != nil {
		tb.Fatal(err)
	}
	req, err := decodeJob(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := parseJob(&req); err == nil {
		tb.Fatal("parseJob accepts a pattern budget of 2000000000")
	}
	seeds = append(seeds, data)
	for _, bad := range []string{
		``, `{`, `null`, `[]`, `{"circuit": 7}`,
		`{"circuit": "aag 1 1 0 1 0\n2\n2\n", "threshold": -1}`,
		`{"circuit": "aag 1 1 0 1 0\n2\n2\n", "format": "verilog"}`,
		`{"circuit": "aag 2000000000 1 0 1 0\n2\n2\n"}`,
		`{"circuit": "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n", "metric": "wce"}`,
		`{"circuit": "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n", "weights": [1, 2]}`,
	} {
		seeds = append(seeds, []byte(bad))
	}
	return seeds
}

// FuzzParseJob drives the request path from raw body bytes to a cache
// key: decode exactly as the handler does, then parseJob. Whatever the
// body, parsing must not panic, and a job it accepts must carry options
// that validate against its circuit and a cache key that does not depend
// on whether the options were resolved first.
func FuzzParseJob(f *testing.F) {
	for _, seed := range jobSeeds(f) {
		f.Add(seed)
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

// FuzzSubmit drives the whole handler: every body is POSTed to /v1/jobs of
// a one-worker server with a 200 ms wall-clock cap and a 64 KiB body cap.
// Whatever the body, the handler must not panic or answer with a 5xx other
// than 503; a 200 must carry a JobResponse and a 4xx httpError's
// {"error": message} shape. The server caps body size and wall time but
// not memory, so a body whose node vectors alone would exceed 8 MiB
// (patterns × (inputs + ANDs) > 2^26 bits) is not submitted.
func FuzzSubmit(f *testing.F) {
	for _, seed := range jobSeeds(f) {
		f.Add(seed)
	}
	fixture, err := os.ReadFile(jobFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture[:len(fixture)/2])
	f.Add(bytes.Replace(fixture, []byte(`{`), []byte(`{"exhaustive": true, `), 1))

	s := New(Config{Workers: 1, MaxTimeLimit: 200 * time.Millisecond, MaxBodyBytes: 64 << 10})
	f.Cleanup(s.Drain)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeJob(bytes.NewReader(data)); err == nil {
			if c, opt, err := parseJob(&req); err == nil {
				g := c.Graph()
				if int64(opt.Resolved().Patterns)*int64(g.NumPIs()+g.NumAnds()) > 1<<26 {
					return
				}
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(data)))
		code, body := rec.Code, rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		switch {
		case code == http.StatusOK:
			var resp JobResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("200 body is not a JobResponse: %v\n%s", err, body)
			}
		case code >= 400 && code < 500:
			var e map[string]string
			if err := dec.Decode(&e); err != nil || len(e) != 1 || e["error"] == "" {
				t.Fatalf("%d body is not {\"error\": message}: %s", code, body)
			}
		case code != http.StatusServiceUnavailable:
			t.Fatalf("status %d: %s", code, body)
		}
	})
}
