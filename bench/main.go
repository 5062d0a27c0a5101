// Command bench is the repository's benchmark: it runs one workload per
// process and reports synthesis time, result quality and serving latency,
// or, with -trace 1, the per-layer breakdown of the same work read from
// the engine's span tree.
//
//	go run . -workload large-const -seed 1 -seconds 20 -trace 0
//	go run . -compare -spec ../BENCHMARK.json parent/*.json -- change/*.json
//
// Every run builds its inputs from -seed, runs one untimed warm-up pass,
// then timed passes until -seconds is used up, checks every output with
// the verification oracle, writes <out>/<workload>-seed<n>.json and prints
// one JSON result as its last line. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: picks every job's Options.Seed and the alsd request sequence")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny inputs, for the test suite")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and layer files")
	compare := fs.Bool("compare", false, "compare result files: -compare parent.json... -- change.json...")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric directions and bounds) for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(*spec, fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if cfg.trace {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, name+".json"), rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep)
	return 0
}

// metricValue is one reported number. N is the sample count behind it
// (omitted for counts and deterministic values). A percentile also carries
// TailQ, the highest percentile its sample count supports: one with at
// least ten samples beyond it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	TailQ float64 `json:"tail_q,omitempty"`
}

// report is everything one run measured; it is written to the out
// directory and is what -compare reads.
type report struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Trace        bool      `json:"trace"`
	Quick        bool      `json:"quick"`
	Seconds      float64   `json:"seconds"`
	Host         hostInfo  `json:"host"`
	Passes       int       `json:"passes"`
	TracedPasses int       `json:"traced_passes"`
	PassSeconds  []float64 `json:"pass_seconds"` // raw wall of each untraced timed pass
	// HostSpeed is calNominal ÷ the median of CalSeconds, the calibration
	// loop's times; every time and rate in Metrics is scaled by it.
	HostSpeed  float64                `json:"host_speed"`
	CalSeconds []float64              `json:"cal_seconds"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Circuits   []circuitRow           `json:"circuits"`

	failedOps map[string]bool
}

// circuitRow is the per-circuit detail: its median call time over the
// timed passes and every call time (raw, not scaled by host_speed), and the
// quality and digests of its results.
type circuitRow struct {
	Name      string    `json:"name"`
	MedianS   float64   `json:"median_s"`
	N         int       `json:"n"`
	Seconds   []float64 `json:"seconds,omitempty"`
	AreaRatio float64   `json:"area_ratio,omitempty"`
	Digests   []string  `json:"digests,omitempty"`
}

func (r *report) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric "+name, "value %v is not a finite number", v)
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

// setPct sets a percentile metric: the nearest-rank q-quantile of xs.
func (r *report) setPct(name string, xs []float64, q float64) {
	r.set(name, percentile(xs, q), len(xs))
	m := r.Metrics[name]
	m.TailQ = tailQuantile(len(xs))
	r.Metrics[name] = m
}

// fail records that operation op failed a check. An operation is one
// synthesis job (library workloads) or one request (alsd-mixed); it counts
// once however many of its checks fail.
func (r *report) fail(op, format string, args ...any) {
	if r.failedOps == nil {
		r.failedOps = map[string]bool{}
	}
	r.failedOps[op] = true
	r.Failed = len(r.failedOps)
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, op+": "+fmt.Sprintf(format, args...))
	}
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printReport prints every metric of the run's mode by name with its unit,
// then the one-line JSON result: the end-to-end metrics, or with -trace 1
// the per-layer ones.
func printReport(w io.Writer, rep *report) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer()
	}
	fmt.Fprintf(w, "workload %s  seed %d  passes %d (+%d traced)  ops %d  failed %d\n",
		rep.Workload, rep.Seed, rep.Passes, rep.TracedPasses, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metricValue{}}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		if m.TailQ > 0 {
			n = fmt.Sprintf("  (n=%d, supports up to q=%g)", m.N, m.TailQ)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %s%s\n", d.name, m.Value, d.unit, n)
		line.Metrics[d.name] = metricValue{Value: m.Value, Unit: d.unit}
	}
	b, _ := json.Marshal(line) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
