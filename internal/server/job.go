package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"dpals"
	"dpals/internal/core"
)

// JobRequest is the JSON body of POST /v1/jobs: a circuit plus the
// synthesis constraints. Each option field carries the JSON name of the
// dpals.Options field parseJob copies it to (Flow and Metric are names
// here, integers there); zero values select the library defaults via
// Options.Resolved.
type JobRequest struct {
	// Circuit is the input netlist, ASCII AIGER ("aag") or BLIF text.
	// Format selects the parser: "aiger", "blif", or "" to sniff.
	Circuit string `json:"circuit"`
	Format  string `json:"format,omitempty"`

	Flow      string    `json:"flow,omitempty"`   // conventional|vecbee|accals|dp|dpsa (default dpsa)
	Metric    string    `json:"metric,omitempty"` // er|mse|med|mhd|wce (default er)
	Threshold float64   `json:"threshold"`
	Weights   []float64 `json:"weights,omitempty"`

	// WCE jobs (metric "wce"): WCEBound is the certified worst-case error
	// budget, CertEvery the certification amortisation interval (0 =
	// default 8), and CertConflictLimit the per-certification SAT conflict
	// cap. The server REQUIRES CertConflictLimit ≥ 1 for WCE jobs that
	// certify by SAT (core.CertifiesByEnumeration is false): an uncapped
	// SAT call cannot be cancelled cooperatively, so whether such a job
	// completes or hits its deadline would depend on wall clock — which
	// would make the result uncacheable and the worker pool unboundable.
	// Jobs the rule admits never reach SAT and may leave it 0.
	WCEBound          uint64 `json:"wce_bound,omitempty"`
	CertEvery         int    `json:"cert_every,omitempty"`
	CertConflictLimit int64  `json:"cert_conflict_limit,omitempty"`

	Patterns           int       `json:"patterns,omitempty"`
	Seed               int64     `json:"seed,omitempty"`
	InputProbabilities []float64 `json:"input_probabilities,omitempty"`

	UseConstLACs   bool `json:"use_const_lacs,omitempty"`
	UseSASIMILACs  bool `json:"use_sasimi_lacs,omitempty"`
	MaxLACsPerNode int  `json:"max_lacs_per_node,omitempty"`

	DepthLimit int `json:"depth_limit,omitempty"`
	M          int `json:"m,omitempty"`
	N          int `json:"n,omitempty"`
	MaxIters   int `json:"max_iters,omitempty"`

	// TimeLimitMS bounds the run's wall clock; the server additionally
	// caps it at its own -max-time-limit. Deadline-stopped results are
	// wall-clock dependent, so they are returned but never cached.
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a level.
	// Clamped to [0, 9].
	Priority int `json:"priority,omitempty"`

	// NoCache bypasses the result cache for this job (both lookup and
	// fill) — for A/B runs and load tests that want cold latencies.
	NoCache bool `json:"no_cache,omitempty"`
}

// JobResponse is the JSON result of a job. Circuit is the approximate
// netlist in ASCII AIGER — byte-identical to what WriteAIGER of a direct
// library call produces, cached or not.
type JobResponse struct {
	JobID    string `json:"job_id"`
	Cache    string `json:"cache"` // "hit", "miss" or "bypass"
	CacheKey string `json:"cache_key"`

	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`
	// ErrorValue is the achieved error on the training patterns. (The
	// "error" key is reserved for failure payloads, e.g. {"error": "queue
	// full"}, so clients can decode every response into one shape.)
	ErrorValue float64 `json:"error_value"`
	AreaRatio  float64 `json:"area_ratio"`
	DelayRatio float64 `json:"delay_ratio"`
	ADPRatio   float64 `json:"adp_ratio"`
	Applied    int     `json:"applied"`
	StopReason string  `json:"stop_reason"`

	// WCE jobs only: the SAT-certified worst-case error bound of the
	// returned circuit and the number of certification calls spent.
	CertifiedWCE uint64 `json:"certified_wce,omitempty"`
	CertCalls    int    `json:"cert_calls,omitempty"`

	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
}

// progressEvent is one SSE "progress" frame.
type progressEvent struct {
	Iter   int     `json:"iter"`
	Ands   int     `json:"ands"`
	Error  float64 `json:"error"`
	Budget float64 `json:"budget"`
}

// job is a parsed, validated, enqueued unit of work.
type job struct {
	id       string
	circuit  *dpals.Circuit
	opt      dpals.Options // resolved
	key      string        // cache key; "" when NoCache
	priority int
	seq      uint64 // FIFO tiebreak within a priority level

	ctx      context.Context // request context: client disconnect cancels
	progress chan progressEvent
	done     chan *jobResult

	enqueued time.Time
}

type jobResult struct {
	resp   *JobResponse
	err    error // job-level failure (not a stop: those return best-so-far)
	status int   // HTTP status for err
}

// decodeJob decodes one request body. A field JobRequest does not name is
// an error, not a silent default: a misspelled or retired option would
// otherwise run a different job than the client asked for.
func decodeJob(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// parseJob parses a request into a circuit and options and validates
// them: Options.Validate for every option check, plus the server's own
// policy (a circuit with outputs, a capped WCE certification). The
// returned error is client-facing.
func parseJob(req *JobRequest) (*dpals.Circuit, dpals.Options, error) {
	var c *dpals.Circuit
	var err error
	text := req.Circuit
	format := strings.ToLower(strings.TrimSpace(req.Format))
	if format == "" {
		if strings.HasPrefix(strings.TrimSpace(text), "aag ") {
			format = "aiger"
		} else {
			format = "blif"
		}
	}
	switch format {
	case "aiger", "aag":
		c, err = dpals.ReadAIGER(strings.NewReader(text))
	case "blif":
		c, err = dpals.ReadBLIF(strings.NewReader(text))
	default:
		return nil, dpals.Options{}, fmt.Errorf("unknown circuit format %q (want aiger or blif)", req.Format)
	}
	if err != nil {
		return nil, dpals.Options{}, fmt.Errorf("parse %s circuit: %w", format, err)
	}
	if c.NumOutputs() == 0 {
		return nil, dpals.Options{}, fmt.Errorf("circuit has no outputs")
	}

	flow, err := dpals.ParseFlow(req.Flow)
	if err != nil {
		return nil, dpals.Options{}, err
	}
	metric, err := dpals.ParseMetric(req.Metric)
	if err != nil {
		return nil, dpals.Options{}, err
	}
	opt := dpals.Options{
		Flow:               flow,
		Metric:             metric,
		Threshold:          req.Threshold,
		Weights:            req.Weights,
		WCEBound:           req.WCEBound,
		CertEvery:          req.CertEvery,
		CertConflictLimit:  req.CertConflictLimit,
		Patterns:           req.Patterns,
		Seed:               req.Seed,
		InputProbabilities: req.InputProbabilities,
		UseConstLACs:       req.UseConstLACs,
		UseSASIMILACs:      req.UseSASIMILACs,
		MaxLACsPerNode:     req.MaxLACsPerNode,
		DepthLimit:         req.DepthLimit,
		M:                  req.M,
		N:                  req.N,
		MaxIters:           req.MaxIters,
		TimeLimit:          time.Duration(req.TimeLimitMS) * time.Millisecond,
	}
	if err := opt.Validate(c.NumOutputs()); err != nil {
		return nil, dpals.Options{}, err
	}
	if metric == dpals.WCE && req.CertConflictLimit < 1 && !core.CertifiesByEnumeration(c.Graph(), opt.Resolved()) {
		return nil, dpals.Options{}, fmt.Errorf("metric wce on a circuit too large to certify by enumeration requires cert_conflict_limit ≥ 1: an uncapped SAT certification call cannot be cancelled, so the job could overrun its deadline unboundedly")
	}
	return c, opt, nil
}

// cacheKey derives the content address of a job's result: a SHA-256 over
// the circuit's structural digest and the JSON of the RESOLVED options,
// with nil Weights replaced by the circuit's effective weight vector.
// Every option is hashed by construction except the two that never change
// the result bits: Threads, zeroed here (results are bit-identical across
// thread counts), and TimeLimit, which Options never encodes
// (deadline-stopped results are never cached, and a run that completes
// inside its limit is identical to one without it). Resolving first is
// what keeps Seed 0 and Seed DefaultSeed — a documented alias — on one
// cache entry while distinct explicit seeds never collide. Go encodes
// floats in their shortest round-trip form, so distinct options never
// share a key.
func cacheKey(c *dpals.Circuit, opt dpals.Options) string {
	opt = opt.Resolved()
	opt.Threads = 0
	if opt.Weights == nil {
		opt.Weights = c.Weights()
	}
	js, err := json.Marshal(opt)
	if err != nil {
		// Validate admits only finite numbers, so this cannot happen.
		panic(fmt.Sprintf("server: cache key of validated options: %v", err))
	}
	h := sha256.New()
	h.Write([]byte("alsd-key-v3\x00"))
	d := c.Graph().StructuralDigest()
	h.Write(d[:])
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}
