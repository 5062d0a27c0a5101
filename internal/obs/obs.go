// Package obs is the observability layer of the synthesis engine: a
// hierarchical span tracer, a live progress renderer, and exporters that
// render one run as a Chrome/Perfetto trace, a JSONL event log, or a human
// summary table. Span attributes carry the per-step counters; the run's
// totals live in core.Stats.
//
// The engine is instrumented unconditionally, but observation is opt-in
// and must never perturb results:
//
//   - Every API is nil-safe. Methods on a nil *Tracer, *Span or *Progress
//     are no-ops, so instrumentation sites never branch.
//   - FromContext returns nil when no tracer is installed, so an untraced
//     run opens no spans at all: the wall time of a step exists only as a
//     span duration, and only when someone is recording.
//   - Tracing reads engine state; it never writes it. The synthesis
//     trajectory is driven exclusively by deterministic quantities
//     (pattern bits, Stats work estimates), so a traced run is bit-identical
//     to an untraced one at every thread count — asserted by
//     core.TestTracingDoesNotPerturbResults.
//
// Everything rides on the context the engine already threads through the
// analysis pipeline: WithTracer/WithSpan install the tracer and the
// current parent span, and package par picks the span up to open one
// child span per worker goroutine (the Perfetto "thread lanes"), closed
// by defer even when a worker callback panics.
package obs

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed span attribute. Value is an int64, float64, or string
// — the three types the exporters know how to render.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanData is the immutable record of one span, as exported.
type SpanData struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0 = root
	Name   string        `json:"name"`
	Lane   int           `json:"lane"` // Perfetto thread lane; 0 = main
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	// Open marks a span that was still running when the snapshot was
	// taken (e.g. a trace flushed on abort): Dur is the duration up to the
	// snapshot, and the span has no end event of its own — truncated but
	// parseable.
	Open bool `json:"open,omitempty"`
}

// Tracer records a span tree with monotonic timestamps. A Tracer is safe
// for concurrent use: child spans may be opened and closed from any
// goroutine (package par does, one per worker).
type Tracer struct {
	epoch time.Time // monotonic origin; span offsets are relative to it

	nextID atomic.Uint64

	mu     sync.Mutex
	done   []SpanData
	active map[uint64]*Span
}

// New returns a tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), active: make(map[uint64]*Span)}
}

// Span is one live node of the span tree. Create children with Child (or
// ChildLane for worker lanes), set typed attributes, and End exactly once
// — End is idempotent, so a defer-close on a panic path is always safe.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	lane   int
	t0     time.Time

	ended atomic.Bool

	mu    sync.Mutex
	attrs []Attr
}

// Start opens a root span.
func (t *Tracer) Start(name string) *Span { return t.newSpan(name, 0, 0) }

func (t *Tracer) newSpan(name string, parent uint64, lane int) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{t: t, id: t.nextID.Add(1), parent: parent, lane: lane, name: name, t0: time.Now()}
	t.mu.Lock()
	t.active[sp.id] = sp
	t.mu.Unlock()
	return sp
}

// Child opens a child span in the same lane. Child of a nil span is nil
// (and every method of a nil span is a no-op).
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.t.newSpan(name, sp.id, sp.lane)
}

// ChildLane opens a child span in an explicit Perfetto lane — one lane
// per par worker, so concurrent workers render as parallel tracks.
func (sp *Span) ChildLane(name string, lane int) *Span {
	if sp == nil {
		return nil
	}
	return sp.t.newSpan(name, sp.id, lane)
}

// Name returns the span's name ("" for nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// SetInt attaches an integer attribute. No-op on a nil span.
func (sp *Span) SetInt(key string, v int64) { sp.setAttr(key, v) }

// SetFloat attaches a float attribute. No-op on a nil span.
func (sp *Span) SetFloat(key string, v float64) { sp.setAttr(key, v) }

// SetStr attaches a string attribute. No-op on a nil span.
func (sp *Span) SetStr(key, v string) { sp.setAttr(key, v) }

func (sp *Span) setAttr(key string, v any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	for i := range sp.attrs {
		if sp.attrs[i].Key == key {
			sp.attrs[i].Value = v
			sp.mu.Unlock()
			return
		}
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: v})
	sp.mu.Unlock()
}

// End closes the span, fixing its duration. Idempotent: only the first
// call records; later calls (e.g. a defer behind an explicit End) no-op.
func (sp *Span) End() {
	if sp == nil || !sp.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(sp.t0)
	t := sp.t
	t.mu.Lock()
	delete(t.active, sp.id)
	t.done = append(t.done, sp.data(dur, false))
	t.mu.Unlock()
}

// data snapshots the span; callers hold no tracer lock, sp.mu guards attrs.
func (sp *Span) data(dur time.Duration, open bool) SpanData {
	sp.mu.Lock()
	attrs := make([]Attr, len(sp.attrs))
	copy(attrs, sp.attrs)
	sp.mu.Unlock()
	return SpanData{
		ID:     sp.id,
		Parent: sp.parent,
		Name:   sp.name,
		Lane:   sp.lane,
		Start:  sp.t0.Sub(sp.t.epoch),
		Dur:    dur,
		Attrs:  attrs,
		Open:   open,
	}
}

// Snapshot returns every span recorded so far, sorted by start time:
// finished spans as-is, still-open spans truncated at the snapshot instant
// and marked Open. Safe to call at any time, including mid-run from a
// signal handler — that is how an aborted alsrun still writes a valid
// (truncated-but-parseable) trace.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	out := make([]SpanData, 0, len(t.done)+len(t.active))
	out = append(out, t.done...)
	open := make([]*Span, 0, len(t.active))
	for _, sp := range t.active {
		open = append(open, sp)
	}
	t.mu.Unlock()
	for _, sp := range open {
		out = append(out, sp.data(now.Sub(sp.t0), true))
	}
	slices.SortFunc(out, byStart)
	return out
}

// ActiveSpans returns the currently open spans sorted by start time — the
// "span stack" streamed by the /debug/obs endpoint. With parallel workers
// it is a forest rather than a stack; sorting by start keeps ancestors
// before their descendants.
func (t *Tracer) ActiveSpans() []SpanData {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	open := make([]*Span, 0, len(t.active))
	for _, sp := range t.active {
		open = append(open, sp)
	}
	t.mu.Unlock()
	out := make([]SpanData, 0, len(open))
	for _, sp := range open {
		out = append(out, sp.data(now.Sub(sp.t0), true))
	}
	slices.SortFunc(out, byStart)
	return out
}

// byStart orders spans by (start, id): ids are unique and
// allocation-ordered, which breaks ties between spans opened within one
// clock granule.
func byStart(a, b SpanData) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
}

// Context plumbing -----------------------------------------------------------

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	progressKey
)

// WithTracer installs a tracer into ctx. Installing nil is a no-op.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the tracer installed in ctx, or nil — whose spans
// are nil, so an untraced run opens none.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpan installs sp as the current parent span: package par opens its
// per-worker lane spans under it. Installing nil is a no-op.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFrom returns the current parent span installed in ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// WithProgress installs a live progress renderer. Installing nil is a
// no-op.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey, p)
}

// ProgressFrom returns the progress renderer installed in ctx, or nil.
func ProgressFrom(ctx context.Context) *Progress {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(progressKey).(*Progress)
	return p
}
