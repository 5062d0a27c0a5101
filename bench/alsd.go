package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpals"
	"dpals/internal/obs"
	"dpals/internal/server"
)

// The alsd-mixed traffic: two closed-loop clients against an in-process
// server with one single-threaded worker, over loopback HTTP. Each client
// either repeats a key it has already completed (a cache hit) or asks for
// a key nobody has asked for yet (a miss that runs synthesis). Key spaces
// are per client, so whether a request hits is known before it is sent.
const (
	alsdClients   = 2
	repeatShare   = 0.6 // share of requests that repeat a completed key
	repeatWindow  = 32  // repeats pick among the client's last keys, far inside the cache
	alsdThreshold = 0.05
	alsdPatterns  = 1024
)

// alsdKey is one distinct job: a circuit and a seed.
type alsdKey struct {
	circuit int
	seed    int64
}

// alsdRecord is one request as the client saw it.
type alsdRecord struct {
	kind     passKind
	pass     int
	key      alsdKey
	fresh    bool
	latency  time.Duration
	status   int
	err      string
	response server.JobResponse
	digest   [sha256.Size]byte
}

type alsdClient struct {
	rng   *rand.Rand
	done  []alsdKey // completed keys, oldest first
	fresh int       // fresh keys issued so far
}

type alsdWorkload struct {
	cfg    config
	inputs []input
	url    string
	hc     *http.Client
	tracer atomic.Pointer[obs.Tracer] // installed into each request while a traced pass runs

	clients [alsdClients]*alsdClient
	records []alsdRecord
	passes  int
	traced  []int              // pass numbers of the traced passes
	missTxt map[alsdKey]string // each key's circuit from its miss
}

func (a *alsdWorkload) perClient() int {
	if a.cfg.quick {
		return 6
	}
	return 150
}

func (a *alsdWorkload) ops() int { return alsdClients * a.perClient() }

func (a *alsdWorkload) threads() int { return 1 }

func (a *alsdWorkload) root() string { return "request" }

// setup builds the circuits and starts a server on a loopback port, ready
// once /healthz answers.
func (a *alsdWorkload) setup() (func(), error) {
	in, err := materialise(alsdCircuits)
	if err != nil {
		return nil, err
	}
	a.inputs = in
	srv := server.New(server.Config{Workers: 1, ThreadsPerJob: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	h := srv.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The engine finds a tracer on the job's context, which derives
		// from the request's: a traced pass records the synthesis spans of
		// its misses without any change to the server.
		if tr := a.tracer.Load(); tr != nil {
			r = r.WithContext(obs.WithTracer(r.Context(), tr))
		}
		h.ServeHTTP(w, r)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on teardown
	}()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: alsdClients}, Timeout: time.Minute}
	a.hc, a.url = hc, "http://"+ln.Addr().String()
	teardown := func() {
		hs.Close()
		<-served
		srv.Drain()
		hc.CloseIdleConnections()
	}
	resp, err := a.hc.Get(a.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		teardown()
		return nil, err
	}
	for c := range a.clients {
		a.clients[c] = &alsdClient{rng: rand.New(rand.NewSource(a.cfg.seed*alsdClients + int64(c)))}
	}
	a.records, a.passes, a.traced, a.missTxt = nil, 0, nil, map[alsdKey]string{}
	return teardown, nil
}

// next picks the client's next key: a repeat of a recently completed key,
// or a fresh one whose seed no other request uses.
func (a *alsdWorkload) next(c int) (alsdKey, bool) {
	cl := a.clients[c]
	if len(cl.done) > 0 && cl.rng.Float64() < repeatShare {
		w := min(repeatWindow, len(cl.done))
		return cl.done[len(cl.done)-1-cl.rng.Intn(w)], false
	}
	k := cl.fresh
	cl.fresh++
	seed := a.cfg.seed*1_000_000 + int64(c)*100_000 + int64(k) + 1
	return alsdKey{circuit: k % len(a.inputs), seed: seed}, true
}

func (a *alsdWorkload) body(k alsdKey) ([]byte, error) {
	return json.Marshal(server.JobRequest{
		Circuit: a.inputs[k.circuit].aiger, Format: "aiger",
		Flow: "dpsa", Metric: "er", Threshold: alsdThreshold, Patterns: alsdPatterns, Seed: k.seed,
	})
}

func (a *alsdWorkload) pass(kind passKind, tr *obs.Tracer) (time.Duration, error) {
	a.tracer.Store(tr)
	defer a.tracer.Store(nil)
	per := make([][]alsdRecord, alsdClients)
	errs := make([]error, alsdClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < alsdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < a.perClient(); i++ {
				key, fresh := a.next(c)
				body, err := a.body(key)
				if err != nil {
					errs[c] = err
					return
				}
				rec := alsdRecord{kind: kind, pass: a.passes, key: key, fresh: fresh}
				a.send(tr, body, &rec)
				if rec.status == http.StatusOK && fresh {
					a.clients[c].done = append(a.clients[c].done, key)
				}
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	for _, rs := range per {
		for _, r := range rs {
			if r.fresh && r.status == http.StatusOK {
				a.missTxt[r.key] = r.response.Circuit
			}
			r.response.Circuit = "" // the digest stands in for it from here on
			a.records = append(a.records, r)
		}
	}
	if kind == traced {
		a.traced = append(a.traced, a.passes)
	}
	a.passes++
	return elapsed, nil
}

// send posts one job and records what came back; the latency covers the
// request and reading the whole response.
func (a *alsdWorkload) send(tr *obs.Tracer, body []byte, rec *alsdRecord) {
	sp := tr.Start("request")
	t0 := time.Now()
	resp, err := a.hc.Post(a.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.latency = time.Since(t0)
	sp.End()
	if err == nil && rec.status == http.StatusOK {
		err = json.Unmarshal(data, &rec.response)
	}
	if err != nil {
		rec.err = err.Error()
		return
	}
	if rec.status != http.StatusOK {
		rec.err = strings.TrimSpace(string(data))
		return
	}
	rec.digest = sha256.Sum256([]byte(rec.response.Circuit))
}

func (a *alsdWorkload) finish(rep *report, layers []Breakdown) {
	keyErr, writes := a.checkKeys()
	checkRequests(rep, a.records, keyErr)

	var lat, hitLat, missLat, queue, run, httpMS, areas []float64
	runByCircuit := make([][]float64, len(a.inputs))
	hits := 0
	for _, r := range a.records {
		if r.kind != timed || r.status != http.StatusOK {
			continue
		}
		l := ms(r.latency)
		lat = append(lat, l)
		if r.response.Cache == "hit" {
			hits++
			hitLat = append(hitLat, l)
			continue
		}
		missLat = append(missLat, l)
		queue = append(queue, r.response.QueueMS)
		run = append(run, r.response.RunMS)
		httpMS = append(httpMS, l-r.response.QueueMS-r.response.RunMS)
		runByCircuit[r.key.circuit] = append(runByCircuit[r.key.circuit], r.response.RunMS/1e3)
		areas = append(areas, r.response.AreaRatio)
	}
	var medians []float64
	for i, in := range a.inputs {
		m := median(runByCircuit[i])
		if len(runByCircuit[i]) > 0 { // a tiny -quick window can miss a circuit
			medians = append(medians, m)
		}
		rep.Circuits = append(rep.Circuits, circuitRow{Name: in.name, MedianS: m, N: len(runByCircuit[i])})
		rep.set("job_s_p50."+in.name, m, len(runByCircuit[i]))
	}
	rep.set("synth_s_gmean", gmean(medians), len(missLat))
	rep.set("area_ratio_gmean", gmean(areas), len(areas))
	rep.setPct("req_ms_p50", lat, 0.5)
	rep.setPct("req_ms_p99", lat, 0.99)
	if !rep.Trace {
		return
	}
	rep.setPct("server.hit_ms_p50", hitLat, 0.5)
	rep.setPct("server.hit_ms_p99", hitLat, 0.99)
	rep.setPct("server.miss_ms_p50", missLat, 0.5)
	rep.setPct("server.miss_ms_p99", missLat, 0.99)
	rep.setPct("server.queue_ms_p50", queue, 0.5)
	rep.setPct("server.queue_ms_p99", queue, 0.99)
	rep.setPct("server.run_ms_p50", run, 0.5)
	rep.setPct("server.http_ms_p50", httpMS, 0.5)
	rep.set("server.hit_rate", float64(hits)/float64(len(lat)), len(lat))
	rep.set("aiger.write_ms", median(writes), len(writes))

	// dpals.wrap_ms: the server's run_ms of a traced pass's misses, minus
	// the engine's run spans inside them.
	var wraps []float64
	for p, b := range layers {
		runMS := 0.0
		for _, r := range a.records {
			if r.pass == a.traced[p] && r.response.Cache == "miss" {
				runMS += r.response.RunMS
			}
		}
		engine := 0.0
		if l := b.Layers["request/run"]; l != nil {
			engine = l.WallMS
		}
		wraps = append(wraps, runMS-engine)
	}
	rep.set("dpals.wrap_ms", median(wraps), len(wraps))
	zeroMissing(rep)
}

// checkKeys verifies each distinct result once: the circuit a miss
// returned must parse, serialise back to the same text, and carry the
// error the server reported, within the budget. It also returns the time
// of each re-serialisation, in ms.
func (a *alsdWorkload) checkKeys() (map[alsdKey]error, []float64) {
	reported := map[alsdKey]float64{}
	for _, r := range a.records {
		if r.fresh && r.status == http.StatusOK {
			reported[r.key] = r.response.ErrorValue
		}
	}
	bad := map[alsdKey]error{}
	var writes []float64
	for k, text := range a.missTxt {
		c, err := dpals.ReadAIGER(strings.NewReader(text))
		if err != nil {
			bad[k] = err
			continue
		}
		var buf bytes.Buffer
		t0 := time.Now()
		err = c.WriteAIGER(&buf)
		writes = append(writes, ms(time.Since(t0)))
		if err == nil && buf.String() != text {
			err = errors.New("served AIGER does not re-serialise to itself")
		}
		if err == nil {
			opt := dpals.Options{Metric: dpals.ER, Threshold: alsdThreshold, Patterns: alsdPatterns, Seed: k.seed}
			err = checkSampled(a.inputs[k.circuit].circuit, c, opt, reported[k])
		}
		if err != nil {
			bad[k] = err
		}
	}
	return bad, writes
}

// checkRequests fails every request that did not return 200, that hit
// when it should have missed or the other way round, whose bytes differ
// from the bytes its key's miss returned, or whose key's result failed
// checkKeys.
func checkRequests(rep *report, records []alsdRecord, keyErr map[alsdKey]error) {
	missDigest := map[alsdKey][sha256.Size]byte{}
	for _, r := range records {
		if r.fresh && r.status == http.StatusOK {
			missDigest[r.key] = r.digest
		}
	}
	for i, r := range records {
		op := fmt.Sprintf("request %d", i)
		want := "hit"
		if r.fresh {
			want = "miss"
		}
		switch {
		case r.status != http.StatusOK || r.err != "":
			rep.fail(op, "status %d: %s", r.status, r.err)
		case r.response.Cache != want:
			rep.fail(op, "cache %q, want %q", r.response.Cache, want)
		case r.digest != missDigest[r.key]:
			rep.fail(op, "hit returned different bytes than the key's miss")
		case keyErr[r.key] != nil:
			rep.fail(op, "%v", keyErr[r.key])
		}
	}
}
