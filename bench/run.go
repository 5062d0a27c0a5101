package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dpals/internal/obs"
)

// passKind tells a workload which pass it is running.
type passKind int

const (
	warmup passKind = iota // untimed, before the window
	timed                  // untraced, inside the window: the end-to-end numbers
	traced                 // with a recording tracer: the per-layer numbers
)

// workload is what run needs from a workload.
type workload interface {
	// setup builds the inputs (and, for alsd-mixed, starts the server). It
	// is timed and repeated; teardown releases what it started.
	setup() (teardown func(), err error)
	// pass runs one pass of the workload, recording its spans into tr when
	// tr is non-nil, and returns its wall time: the summed synthesis time of
	// its jobs, or the elapsed time of its requests.
	pass(kind passKind, tr *obs.Tracer) (time.Duration, error)
	// ops is the number of operations (jobs or requests) one pass makes.
	ops() int
	// threads is the engine thread count of each job.
	threads() int
	// root names the benchmark's own root span; every other root span (the
	// engine's "run") is nested under the span that contains it.
	root() string
	// finish checks every recorded output and sets the workload's metrics;
	// layers holds one breakdown per traced pass.
	finish(rep *report, layers []Breakdown)
}

func newWorkload(cfg config) (workload, error) {
	if cfg.workload == "alsd-mixed" {
		return &alsdWorkload{cfg: cfg}, nil
	}
	lw, ok := libWorkloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	return &libRun{cfg: cfg, w: lw}, nil
}

// run executes one benchmark run: repeated set-up, an untimed warm-up
// pass, the timed window and the checks.
func run(cfg config) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Quick: cfg.quick,
		Seconds: cfg.seconds, Host: host(), Metrics: map[string]metricValue{}}

	// Set-up is cheap next to a pass, so one measurement of it is noisy:
	// set up several times and report the median.
	repeats := 7
	if cfg.quick {
		repeats = 2
	}
	var setups []float64
	teardown := func() {}
	for i := 0; i < repeats; i++ {
		teardown()
		t0 := time.Now()
		td, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		teardown = td
	}
	defer teardown()
	rep.set("setup_s", median(setups), len(setups))
	var cal calibration
	cal.sample(3)

	// The warm-up pass fills caches and lazy state; its allocation counts
	// are the rt.* rows (ReadMemStats stops the world, so never in the
	// window).
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := w.pass(warmup, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.ReadMemStats(&m1)
	ops := float64(w.ops())
	rep.set("rt.alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops, 0)
	rep.set("rt.mallocs_per_job", float64(m1.Mallocs-m0.Mallocs)/ops, 0)
	rep.set("rt.gc_per_job", float64(m1.NumGC-m0.NumGC)/ops, 0)

	// The timed window. A traced run alternates untraced and traced passes,
	// so the tracing overhead is measured against passes run alongside.
	window := time.Duration(cfg.seconds * float64(time.Second))
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	var plain, tracedWalls []float64
	var elapsed time.Duration
	var layers []Breakdown
	start := time.Now()
	var last time.Duration
	for i := 0; i < minPasses || time.Since(start)+last <= window; i++ {
		cal.maybe()
		kind := timed
		var tr *obs.Tracer
		if cfg.trace && i%2 == 1 {
			kind, tr = traced, obs.New()
		}
		t0 := time.Now()
		wall, err := w.pass(kind, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		last = time.Since(t0)
		if tr == nil {
			plain = append(plain, wall.Seconds())
			elapsed += last
			continue
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		bd := aggregate(tr.Snapshot(), w.root())
		layers = append(layers, bd)
		if len(layers) == 1 {
			if err := writeTrace(cfg, tr, bd); err != nil {
				return nil, err
			}
		}
	}
	cal.sample(3)
	rep.Passes, rep.TracedPasses, rep.PassSeconds = len(plain), len(tracedWalls), plain
	rep.set("peak_rss_mb", peakRSSMB(), 0)
	rep.set("req_per_s", float64(len(plain))*ops/elapsed.Seconds(), len(plain)*w.ops())

	if cfg.trace {
		rep.set("trace.overhead_frac", median(tracedWalls)/median(plain)-1, len(tracedWalls))
		for name, v := range medianLayers(layers, w.threads()) {
			rep.set(name, v, len(layers))
		}
	}
	w.finish(rep, layers)
	rep.HostSpeed, rep.CalSeconds = cal.speed(), cal.times
	for k, m := range rep.Metrics {
		switch m.Unit {
		case "s", "ms":
			m.Value *= rep.HostSpeed
		case "1/s":
			m.Value /= rep.HostSpeed
		default:
			continue
		}
		rep.Metrics[k] = m
	}
	rep.Attempted = (1 + len(plain) + len(tracedWalls)) * w.ops()
	rep.set("ok_frac", 1-float64(rep.Failed)/float64(rep.Attempted), rep.Attempted)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// spanMetrics derives the time-based per-layer metrics of one traced pass
// from its self-time table.
func spanMetrics(b Breakdown, threads int) map[string]float64 {
	busy := 1.0 // one thread: the lone worker is the main lane, always busy
	if threads > 1 {
		busy = 0
		if b.LaneParentMS > 0 {
			busy = b.LaneMS / (float64(threads) * b.LaneParentMS)
		}
	}
	unattributed := b.Sum(containers...)
	frac := 0.0
	if b.RootMS > 0 {
		frac = unattributed / b.RootMS
	}
	return map[string]float64{
		"eval.p1_ms":              b.Sum("phase1/eval"),
		"eval.p2_ms":              b.Sum("phase2/eval"),
		"cpm.p1_cold_ms":          b.Sum("phase1/cpm"),
		"cpm.p1_warm_ms":          b.Sum("phase1/cpm.warm"),
		"cpm.p2_ms":               b.Sum("phase2/cpm"),
		"cut.build_ms":            b.Sum("phase1/cuts", "phase1/cuts.warm"),
		"cut.update_ms":           b.Sum("cuts.update"),
		"equiv.cert_ms":           b.Sum("cert"),
		"sim.init_ms":             b.Sum("run/init"),
		"sim.resim_ms":            b.Sum("resim"),
		"core.apply_ms":           b.Sum("apply"),
		"core.rollback_ms":        b.Sum("rollback"),
		"core.sweep_ms":           b.Sum("run/sweep"),
		"core.unattributed_ms":    b.Sum("run", "round", "phase1", "phase2"),
		"dpals.wrap_ms":           b.Sum("job"),
		"par.busy_frac":           busy,
		"trace.unattributed_frac": frac,
	}
}

// containers are the spans that only group layers: their self time is
// time no layer span covers. "request" is the alsd client's span, whose
// self time is the server's own work, which has no spans yet.
var containers = []string{"pass", "request", "run", "round", "phase1", "phase2"}

// medianLayers returns, per span metric, the median over traced passes.
func medianLayers(layers []Breakdown, threads int) map[string]float64 {
	vals := map[string][]float64{}
	for _, b := range layers {
		for k, v := range spanMetrics(b, threads) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// writeTrace writes the first traced pass as a Perfetto trace and as its
// self-time table. The table's self times, unattributed row included, add
// up to the summed wall time of the root spans; residual_frac is how far
// they miss it.
func writeTrace(cfg config, tr *obs.Tracer, b Breakdown) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, cfg.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WritePerfetto(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	rows := make([]*Layer, 0, len(b.Layers))
	for _, l := range b.Layers {
		rows = append(rows, l)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return writeJSON(filepath.Join(cfg.outDir, cfg.workload+".layers.json"), struct {
		RootMS         float64  `json:"root_ms"`
		SelfSumMS      float64  `json:"self_sum_ms"`
		UnattributedMS float64  `json:"unattributed_ms"`
		ResidualFrac   float64  `json:"residual_frac"`
		Layers         []*Layer `json:"layers"`
	}{b.RootMS, b.SelfSum(), b.Sum(containers...), residual(b), rows})
}

// residual is the relative gap between the summed self times and the
// summed root wall time.
func residual(b Breakdown) float64 {
	if b.RootMS == 0 {
		return 0
	}
	return (b.SelfSum() - b.RootMS) / b.RootMS
}

// peakRSSMB reads the process's peak resident set (VmHWM, in KiB) in MB
// (10^6 bytes, like the rt.* rows); 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
