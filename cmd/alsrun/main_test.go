package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

	"dpals"
)

// The exec tests drive the built alsrun binary end to end: flag wiring,
// artifact writing, and the SIGINT flush path, which cannot be exercised
// in-process.
var (
	binPath string
	aagPath string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "alsrun-test")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	binPath = filepath.Join(dir, "alsrun")
	build := exec.Command("go", "build", "-o", binPath, ".")
	if out, err := build.CombinedOutput(); err != nil {
		panic("building alsrun: " + err.Error() + "\n" + string(out))
	}

	aagPath = filepath.Join(dir, "vecmul.aag")
	f, err := os.Create(aagPath)
	if err != nil {
		panic(err)
	}
	if err := dpals.NewVecMul(4, 10).WriteAIGER(f); err != nil {
		panic(err)
	}
	f.Close()

	os.Exit(m.Run())
}

// parseTrace decodes a trace.json and returns its events.
func parseTrace(t *testing.T, path string) []map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	return trace.TraceEvents
}

// TestRunWritesObservabilityArtifacts: a traced, progress-enabled run
// must exit zero and leave parseable artifacts whose phase spans cover
// the run.
func TestRunWritesObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	stats := filepath.Join(dir, "stats.json")

	cmd := exec.Command(binPath,
		"-flow", "dpsa", "-metric", "mse", "-max-iters", "12", "-threads", "2",
		"-trace", trace, "-stats", stats, "-progress",
		aagPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("alsrun failed: %v\n%s", err, out)
	}

	events := parseTrace(t, trace)
	names := map[string]int{}
	for _, e := range events {
		if e["ph"] == "X" {
			names[e["name"].(string)]++
		}
	}
	for _, want := range []string{"run", "phase1", "cuts", "cpm", "eval", "apply"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}

	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var s map[string]any
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"runtime_ns", "cut_work", "stop_reason", "pool_gets"} {
		if _, ok := s[key]; !ok {
			t.Errorf("stats JSON missing %q", key)
		}
	}
	for key := range s {
		if _, ok := statsFieldKeys[key]; !ok && !derivedKeys[key] {
			t.Errorf("stats JSON has key %q outside the -stats schema", key)
		}
	}
	if s["runtime_ns"].(float64) <= 0 || s["cut_work"].(float64) <= 0 {
		t.Errorf("runtime_ns %v, cut_work %v: want both positive", s["runtime_ns"], s["cut_work"])
	}
}

// TestBinaryAIGERRoundTrip: a circuit alsrun writes with -o x.aig must be
// readable by alsrun itself — the input format follows the file header,
// not the extension.
func TestBinaryAIGERRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.aig")
	for _, args := range [][]string{
		{"-max-iters", "3", "-patterns", "512", "-o", out, aagPath},
		{"-max-iters", "3", "-patterns", "512", out},
	} {
		if b, err := exec.Command(binPath, args...).CombinedOutput(); err != nil {
			t.Fatalf("alsrun %v: %v\n%s", args, err, b)
		}
	}
}

// TestSIGINTWritesTruncatedTrace: one SIGINT stops the run cooperatively —
// exit 0, best-so-far result, stop_reason cancelled — and the trace and
// stats artifacts must still be written and parseable. A cancelled run's
// root span carries the cancellation latency.
func TestSIGINTWritesTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	stats := filepath.Join(dir, "stats.json")

	cmd := exec.Command(binPath,
		"-flow", "dp", "-metric", "mse",
		"-trace", trace, "-stats", stats,
		aagPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the run get under way, then interrupt it mid-flight.
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("alsrun after SIGINT: %v", err)
	}

	events := parseTrace(t, trace)

	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		StopReason string `json:"stop_reason"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	// A fast machine may finish before the signal lands; only then is
	// "budget" acceptable.
	if s.StopReason != "cancelled" && s.StopReason != "budget" {
		t.Fatalf("stop_reason %q, want cancelled", s.StopReason)
	}
	runs := 0
	for _, e := range events {
		if e["name"] != "run" {
			continue
		}
		runs++
		lat, ok := e["args"].(map[string]any)["cancel_latency_ns"].(float64)
		if cancelled := s.StopReason == "cancelled"; ok != cancelled || (ok && lat <= 0) {
			t.Fatalf("run span cancel_latency_ns = %v (present %v), stop_reason %q", lat, ok, s.StopReason)
		}
	}
	if runs != 1 {
		t.Fatalf("trace has %d run spans, want 1", runs)
	}
}

// TestDoubleSIGINTAbortStillFlushes: the hard-abort path (second SIGINT)
// must exit 130 and still leave a parseable, truncated trace. Timing makes
// the abort race the cooperative stop, so the test tolerates either exit —
// but whenever the trace file exists it must parse.
func TestDoubleSIGINTAbortStillFlushes(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")

	cmd := exec.Command(binPath,
		"-flow", "dp", "-metric", "mse",
		"-trace", trace,
		aagPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	time.Sleep(50 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()

	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != 0 && code != 130 {
		t.Fatalf("exit code %d, want 0 (cooperative) or 130 (abort)", code)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace not flushed on abort: %v", err)
	}
	events := parseTrace(t, trace)
	// On the abort path the run span is still open; open spans must carry
	// the open marker rather than bogus durations.
	if code == 130 {
		sawOpen := false
		for _, e := range events {
			if args, ok := e["args"].(map[string]any); ok && args["open"] == true {
				sawOpen = true
			}
		}
		if !sawOpen {
			t.Error("aborted trace has no open-marked span")
		}
	}
}

// statsFieldKeys is the -stats schema's mapping from JSON key to the
// dpals.Stats field it reports (Runtime in nanoseconds).
var statsFieldKeys = map[string]string{
	"applied": "Applied", "comprehensive": "Comprehensive", "incremental": "Incremental",
	"rollbacks": "Rollbacks", "runtime_ns": "Runtime",
	"cut_work": "CutWork", "cpm_work": "CPMWork", "eval_work": "EvalWork",
	"cpm_rows_reused": "CPMRowsReused", "cpm_rows_recomputed": "CPMRowsRecomputed",
	"warm_comprehensive": "WarmComprehensive", "eval_memo_hits": "EvalMemoHits", "cut_updates_incremental": "CutUpdates",
	"certified_wce": "CertifiedWCE", "cert_calls": "CertCalls", "cert_cex_hits": "CertCexHits",
	"cert_rollbacks": "CertRollbacks",
}

// derivedKeys are the rest of the -stats schema: the run header, the
// stop reason, the M trajectory, and the rates and sums derived from
// dpals.Stats.
var derivedKeys = map[string]bool{
	"flow": true, "metric": true, "threshold": true, "error": true, "gates": true,
	"area_ratio": true, "adp_ratio": true, "stop_reason": true, "m_trace": true,
	"reuse_rate": true, "phase1_reuse_rate": true, "skipped_work": true,
	"pool_gets": true, "pool_reuses": true, "pool_hit_rate": true,
}

// TestStatsJSONSchema pins the complete -stats key set. Every numeric
// dpals.Stats field gets a distinct non-zero value, so no omitempty key is
// dropped, and each reported counter must land under exactly its key: a
// renamed, dropped or added key, or a field reported under the wrong key,
// fails here.
func TestStatsJSONSchema(t *testing.T) {
	var st dpals.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		}
	}
	st.MTrace = []int{60, 75}
	st.StopReason = dpals.StopBudget
	st.Pool.Gets, st.Pool.Reuses = 40, 30
	res := &dpals.Result{Circuit: dpals.NewAdder(2), Error: 0.5, AreaRatio: 0.8, ADPRatio: 0.6, Stats: st}

	path := filepath.Join(t.TempDir(), "stats.json")
	if err := writeStats(path, dpals.DPSA, dpals.MSE, 4, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	var keys, want []string
	for k := range got {
		keys = append(keys, k)
	}
	for k := range statsFieldKeys {
		want = append(want, k)
	}
	for k := range derivedKeys {
		want = append(want, k)
	}
	sort.Strings(keys)
	sort.Strings(want)
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("-stats keys\n got:  %v\n want: %v", keys, want)
	}

	for key, field := range statsFieldKeys {
		f := v.FieldByName(field)
		var w float64
		if f.CanUint() {
			w = float64(f.Uint())
		} else {
			w = float64(f.Int())
		}
		if got[key] != w {
			t.Errorf("%s = %v, want %s = %v", key, got[key], field, w)
		}
	}
	derived := map[string]any{
		"flow": "DP-SA", "metric": "MSE", "threshold": 4.0, "error": 0.5,
		"gates": float64(res.Circuit.NumGates()), "area_ratio": 0.8, "adp_ratio": 0.6,
		"stop_reason": "budget", "m_trace": []any{60.0, 75.0},
		"reuse_rate": st.ReuseRate(), "phase1_reuse_rate": st.Phase1ReuseRate(),
		"skipped_work": float64(st.SkippedWork()), "pool_gets": 40.0, "pool_reuses": 30.0, "pool_hit_rate": 0.75,
	}
	for key, w := range derived {
		if !reflect.DeepEqual(got[key], w) {
			t.Errorf("%s = %v, want %v", key, got[key], w)
		}
	}
}
