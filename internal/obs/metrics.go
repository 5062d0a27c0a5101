package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The runtime/metrics the registry samples alongside its own counters and
// gauges. Read as one batch per Sample call (a few microseconds).
var runtimeMetricNames = []struct {
	name string // runtime/metrics key
	key  string // sample key
}{
	{"/memory/classes/heap/objects:bytes", "heap_objects_bytes"},
	{"/gc/heap/allocs:bytes", "heap_allocs_total_bytes"},
	{"/gc/cycles/total:gc-cycles", "gc_cycles"},
	{"/gc/pauses:seconds", "gc_pause_total_s"},
	{"/sched/goroutines:goroutines", "goroutines"},
}

// Counter is a monotonically increasing named value. Safe for concurrent
// use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named instantaneous value. Safe for concurrent use; all
// methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Sample is one snapshot row: every counter, gauge, and runtime metric at
// one iteration boundary.
type Sample struct {
	Iter   int                `json:"iter"`
	AtNS   int64              `json:"at_ns"` // monotonic offset from NewMetrics
	Values map[string]float64 `json:"values"`
}

// Metrics is a registry of named counters and gauges, plus a sampler that
// snapshots them — together with a fixed set of runtime/metrics values
// (heap bytes, GC cycles and pause totals, goroutines) — at iteration
// boundaries. All methods are nil-safe and goroutine-safe; sampling reads
// engine state but never writes it, so metrics cannot perturb results.
type Metrics struct {
	epoch time.Time

	mu       sync.Mutex
	names    []string // registration order, counters then gauges interleaved
	counters map[string]*Counter
	gauges   map[string]*Gauge
	samples  []Sample
	latest   bool // retain only the most recent sample (NewLatestMetrics)
	rt       []metrics.Sample
}

// NewMetrics returns an empty registry whose clock starts now. It retains
// every sample, for Samples and WriteJSONL.
func NewMetrics() *Metrics {
	m := &Metrics{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		rt:       make([]metrics.Sample, len(runtimeMetricNames)),
	}
	for i, rm := range runtimeMetricNames {
		m.rt[i].Name = rm.name
	}
	return m
}

// NewLatestMetrics returns a registry that retains only its most recent
// sample, so its memory stays bounded however many iterations sample it:
// the registry of a long-lived process (alsd), which serves LastSample
// and never the history.
func NewLatestMetrics() *Metrics {
	m := NewMetrics()
	m.latest = true
	return m
}

// Counter returns (registering on first use) the named counter, or nil on
// a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
		m.names = append(m.names, name)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on a
// nil registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
		m.names = append(m.names, name)
	}
	return g
}

// TakeSample snapshots every registered counter and gauge plus the
// runtime metrics into a new Sample row tagged with the iteration number.
// Nil-safe: the engine calls it unconditionally at iteration boundaries.
func (m *Metrics) TakeSample(iter int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	vals := make(map[string]float64, len(m.names)+len(m.rt))
	for name, c := range m.counters {
		vals[name] = float64(c.Value())
	}
	for name, g := range m.gauges {
		vals[name] = g.Value()
	}
	metrics.Read(m.rt)
	for i, rm := range runtimeMetricNames {
		switch m.rt[i].Value.Kind() {
		case metrics.KindUint64:
			vals[rm.key] = float64(m.rt[i].Value.Uint64())
		case metrics.KindFloat64:
			vals[rm.key] = m.rt[i].Value.Float64()
		case metrics.KindFloat64Histogram:
			vals[rm.key] = histogramTotal(m.rt[i].Value.Float64Histogram())
		}
	}
	if m.latest {
		m.samples = m.samples[:0]
	}
	m.samples = append(m.samples, Sample{
		Iter:   iter,
		AtNS:   time.Since(m.epoch).Nanoseconds(),
		Values: vals,
	})
}

// histogramTotal approximates the cumulative sum of a runtime histogram
// (e.g. total GC pause seconds) by bucket midpoints; the unbounded edge
// buckets fall back to their finite boundary.
func histogramTotal(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

// Samples returns a copy of every retained sample: every sample taken so
// far, or for a NewLatestMetrics registry at most the last one.
func (m *Metrics) Samples() []Sample {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// LastSample returns the most recent sample, if any.
func (m *Metrics) LastSample() (Sample, bool) {
	if m == nil {
		return Sample{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return Sample{}, false
	}
	return m.samples[len(m.samples)-1], true
}

// WriteJSONL writes one JSON object per sample — the machine-diffable
// metrics log (alsrun -metrics).
func (m *Metrics) WriteJSONL(w io.Writer) error {
	for _, s := range m.Samples() {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders the last sample as an aligned key/value table.
func (m *Metrics) WriteSummary(w io.Writer) error {
	last, ok := m.LastSample()
	if !ok {
		_, err := fmt.Fprintln(w, "metrics: no samples")
		return err
	}
	keys := make([]string, 0, len(last.Values))
	width := 0
	for k := range last.Values {
		keys = append(keys, k)
		if len(k) > width {
			width = len(k)
		}
	}
	sort.Strings(keys)
	if _, err := fmt.Fprintf(w, "metrics at iter %d (t=%s):\n", last.Iter, time.Duration(last.AtNS)); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "  %-*s  %g\n", width, k, last.Values[k]); err != nil {
			return err
		}
	}
	return nil
}
