// Package server implements alsd, the approximate-logic-synthesis job
// daemon: an HTTP/JSON front end over dpals.ApproximateContext with a
// bounded priority worker queue, per-tenant rate limiting, a
// content-addressed result cache keyed on (structural circuit digest,
// resolved options), SSE progress streaming, and graceful drain — every
// in-flight job is cancelled cooperatively and answers with its valid
// best-so-far circuit and a truthful stop_reason.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpals"
	"dpals/internal/obs"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	Workers      int           // synthesis worker pool size (≤0: GOMAXPROCS)
	QueueDepth   int           // max queued jobs before 503 (≤0: 64)
	CacheEntries int           // result cache entry cap (≤0: 1024)
	CacheBytes   int64         // result cache byte cap (≤0: 256 MiB)
	RatePerSec   float64       // per-tenant sustained submissions/s (≤0: unlimited)
	Burst        int           // per-tenant burst allowance (≤0: 8)
	MaxTimeLimit time.Duration // hard cap applied to every job (≤0: 5m)
	MaxBodyBytes int64         // request body cap (≤0: 32 MiB)
	// ThreadsPerJob is the engine thread count per job (≤0: GOMAXPROCS /
	// Workers, min 1). Requests cannot raise it: results are bit-identical
	// for every value, so this is purely a capacity knob.
	ThreadsPerJob int
	ProgressEvery time.Duration // SSE progress cadence (≤0: 100ms)
}

// Server owns the worker pool, queue, cache and limiter. Create with New,
// expose Handler() over an http.Server, stop with Drain (idempotent).
type Server struct {
	cfg     Config
	queue   *jobQueue
	cache   *cache
	limiter *rateLimiter

	drainCtx    context.Context
	cancelDrain context.CancelFunc
	draining    atomic.Bool
	drainOnce   sync.Once
	wg          sync.WaitGroup

	jobSeq        atomic.Uint64
	jobsAccepted  atomic.Int64
	jobsCompleted atomic.Int64
	jobsCancelled atomic.Int64 // engine stopped by disconnect or drain
	jobsFailed    atomic.Int64
	jobsRunning   atomic.Int64
	rejectedRate  atomic.Int64
	rejectedFull  atomic.Int64
}

// New starts cfg.Workers worker goroutines and returns the server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTimeLimit <= 0 {
		cfg.MaxTimeLimit = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.ThreadsPerJob <= 0 {
		cfg.ThreadsPerJob = runtime.GOMAXPROCS(0) / cfg.Workers
		if cfg.ThreadsPerJob < 1 {
			cfg.ThreadsPerJob = 1
		}
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 100 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueDepth),
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst),
	}
	s.drainCtx, s.cancelDrain = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, queued and running jobs are cancelled cooperatively — each returns
// its valid best-so-far circuit with stop_reason "cancelled" — and Drain
// returns once every worker has answered its last job. Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.queue.close()
		s.cancelDrain()
		s.wg.Wait()
	})
}

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs        submit a job (add ?stream=sse for live progress)
//	GET  /healthz        liveness + drain state
//	GET  /statsz         queue/cache/job counters as JSON
//	     /debug/pprof/*  runtime profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/statsz", s.handleStats)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one dequeued job on this worker and delivers exactly
// one jobResult on j.done. The job context is the HTTP request context
// joined with the drain context: a client disconnect or a drain cancels
// the engine cooperatively, which still yields a valid best-so-far
// circuit with StopReason = cancelled.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	stop := context.AfterFunc(s.drainCtx, cancel)
	defer stop()

	if j.progress != nil {
		prog := obs.NewProgressFunc(func(iter, ands int, errv, budget float64) {
			select { // drop events rather than stall the engine
			case j.progress <- progressEvent{Iter: iter, Ands: ands, Error: errv, Budget: budget}:
			default:
			}
		}, s.cfg.ProgressEvery)
		defer prog.Done()
		ctx = obs.WithProgress(ctx, prog)
	}

	s.jobsRunning.Add(1)
	defer s.jobsRunning.Add(-1)
	queueWait := time.Since(j.enqueued)
	start := time.Now()
	res, err := dpals.ApproximateContext(ctx, j.circuit, j.opt)
	runTime := time.Since(start)
	if err != nil {
		s.jobsFailed.Add(1)
		j.done <- &jobResult{err: fmt.Errorf("synthesis: %w", err), status: http.StatusUnprocessableEntity}
		return
	}

	var buf bytes.Buffer
	if werr := res.Circuit.WriteAIGER(&buf); werr != nil {
		s.jobsFailed.Add(1)
		j.done <- &jobResult{err: fmt.Errorf("serialise result: %w", werr), status: http.StatusInternalServerError}
		return
	}
	resp := &JobResponse{
		JobID:      j.id,
		Cache:      "bypass",
		CacheKey:   j.key,
		Circuit:    buf.String(),
		Gates:      res.Circuit.NumGates(),
		ErrorValue: res.Error,
		AreaRatio:  res.AreaRatio,
		DelayRatio: res.DelayRatio,
		ADPRatio:   res.ADPRatio,
		Applied:    res.Stats.Applied,
		StopReason: string(res.Stats.StopReason),

		CertifiedWCE: res.Stats.CertifiedWCE,
		CertCalls:    res.Stats.CertCalls,
		QueueMS:      float64(queueWait) / float64(time.Millisecond),
		RunMS:        float64(runTime) / float64(time.Millisecond),
	}
	// Only deterministic completions are content-addressable: a cancelled
	// or deadline-stopped run reflects wall clock and client behaviour,
	// not the cache key.
	if j.key != "" {
		resp.Cache = "miss"
		if res.Stats.StopReason == dpals.StopBudget || res.Stats.StopReason == dpals.StopMaxIters {
			s.cache.put(j.key, resp)
		}
	}
	if ctx.Err() != nil {
		s.jobsCancelled.Add(1)
	}
	s.jobsCompleted.Add(1)
	j.done <- &jobResult{resp: resp}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	req, err := decodeJob(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if !s.limiter.allow(tenantKey(r), time.Now()) {
		s.rejectedRate.Add(1)
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded for tenant")
		return
	}
	circuit, opt, err := parseJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The server owns capacity decisions: per-job threads are fixed (the
	// engine is bit-identical for every value) and deadlines are capped.
	opt.Threads = s.cfg.ThreadsPerJob
	if opt.TimeLimit <= 0 || opt.TimeLimit > s.cfg.MaxTimeLimit {
		opt.TimeLimit = s.cfg.MaxTimeLimit
	}
	opt = opt.Resolved()

	stream := r.URL.Query().Get("stream") == "sse"
	seq := s.jobSeq.Add(1)
	j := &job{
		id:       fmt.Sprintf("j%06d", seq),
		seq:      seq,
		circuit:  circuit,
		opt:      opt,
		priority: clamp(req.Priority, 0, 9),
		ctx:      r.Context(),
		done:     make(chan *jobResult, 1),
		enqueued: time.Now(),
	}
	if !req.NoCache {
		// The key is computed from the RESOLVED options, so the documented
		// Seed-0 → DefaultSeed alias shares one entry while distinct
		// explicit seeds never collide.
		j.key = cacheKey(circuit, opt)
		if cached, ok := s.cache.get(j.key); ok {
			// The stored response belongs to the job that computed it; a
			// hit answers with a copy that carries this request's own
			// identity and no queue or run time.
			resp := *cached
			resp.JobID, resp.Cache, resp.CacheKey = j.id, "hit", j.key
			resp.QueueMS, resp.RunMS = 0, 0
			s.writeResult(w, stream, &resp, nil)
			return
		}
	}
	if stream {
		j.progress = make(chan progressEvent, 16)
	}

	if err := s.queue.push(j); err != nil {
		if err == errQueueFull {
			s.rejectedFull.Add(1)
			httpError(w, http.StatusServiceUnavailable, "queue full")
		} else {
			httpError(w, http.StatusServiceUnavailable, err.Error())
		}
		return
	}
	s.jobsAccepted.Add(1)

	if stream {
		s.streamJob(w, r, j)
		return
	}
	select {
	case res := <-j.done:
		s.writeResult(w, false, res.resp, res)
	case <-r.Context().Done():
		// Client gone: nothing to write. The worker observes the same
		// cancellation and retires the job with StopReason cancelled.
	}
}

// streamJob answers ?stream=sse: "progress" events at the configured
// cadence, then exactly one "result" (or "error") event.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	fl := startSSE(w)
	if fl == nil {
		return
	}
	fl.Flush()
	for {
		select {
		case ev := <-j.progress:
			writeSSE(w, "progress", ev)
			fl.Flush()
		case res := <-j.done:
			if res.err != nil {
				writeSSE(w, "error", map[string]string{"error": res.err.Error()})
			} else {
				writeSSE(w, "result", res.resp)
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// startSSE writes the status and headers of an SSE response — the same
// for a streamed run and a cache hit, so no proxy buffers either — and
// returns the flusher. A writer that cannot flush gets a 500 and nil.
func startSSE(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return fl
}

func (s *Server) writeResult(w http.ResponseWriter, stream bool, resp *JobResponse, res *jobResult) {
	if res != nil && res.err != nil {
		httpError(w, res.status, res.err.Error())
		return
	}
	if stream {
		fl := startSSE(w)
		if fl == nil {
			return
		}
		writeSSE(w, "result", resp)
		fl.Flush()
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ok\":true,\"draining\":%v}\n", s.draining.Load())
}

// ServerStats is the /statsz payload.
type ServerStats struct {
	Accepted     int64      `json:"jobs_accepted"`
	Completed    int64      `json:"jobs_completed"`
	Cancelled    int64      `json:"jobs_cancelled"`
	Failed       int64      `json:"jobs_failed"`
	Running      int64      `json:"jobs_running"`
	QueueDepth   int        `json:"queue_depth"`
	RejectedRate int64      `json:"rejected_rate_limit"`
	RejectedFull int64      `json:"rejected_queue_full"`
	Draining     bool       `json:"draining"`
	Cache        cacheStats `json:"cache"`
}

// Stats snapshots the server counters (also served at /statsz).
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:     s.jobsAccepted.Load(),
		Completed:    s.jobsCompleted.Load(),
		Cancelled:    s.jobsCancelled.Load(),
		Failed:       s.jobsFailed.Load(),
		Running:      s.jobsRunning.Load(),
		QueueDepth:   s.queue.depth(),
		RejectedRate: s.rejectedRate.Load(),
		RejectedFull: s.rejectedFull.Load(),
		Draining:     s.draining.Load(),
		Cache:        s.cache.stats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats())
}

// tenantKey identifies the submitter for rate limiting: the X-Tenant
// header when present, else the remote host.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
