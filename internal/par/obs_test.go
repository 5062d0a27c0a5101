package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dpals/internal/obs"
)

// TestLaneSpansUnderRecordingTracer: with a recording span on the context,
// every parallel worker must open exactly one lane child span, closed with
// an item count.
func TestLaneSpansUnderRecordingTracer(t *testing.T) {
	tr := obs.New()
	parent := tr.Start("eval")
	ctx := obs.WithSpan(obs.WithTracer(context.Background(), tr), parent)

	const n = 200
	var count atomic.Int64
	if err := For(ctx, 4, n, func(_, _ int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	parent.End()
	if count.Load() != n {
		t.Fatalf("%d items processed, want %d", count.Load(), n)
	}

	spans := tr.Snapshot()
	var lanes []obs.SpanData
	items := int64(0)
	for _, sp := range spans {
		if sp.Lane == 0 {
			continue
		}
		lanes = append(lanes, sp)
		if sp.Open {
			t.Fatalf("lane span %d still open", sp.Lane)
		}
		if sp.Name != "eval" {
			t.Fatalf("lane span named %q, want parent's name", sp.Name)
		}
		for _, a := range sp.Attrs {
			if a.Key == "items" {
				items += a.Value.(int64)
			}
		}
	}
	if len(lanes) != 4 {
		t.Fatalf("%d lane spans, want 4", len(lanes))
	}
	seen := map[int]bool{}
	for _, sp := range lanes {
		if seen[sp.Lane] {
			t.Fatalf("duplicate lane %d", sp.Lane)
		}
		seen[sp.Lane] = true
	}
	if items != n {
		t.Fatalf("lane item counts sum to %d, want %d", items, n)
	}
}

// TestLaneSpansClosedOnPanic: when a worker callback panics and par
// re-raises it as *Panic, the worker lane spans must still have been
// closed by their defers — the trace stays well-formed.
func TestLaneSpansClosedOnPanic(t *testing.T) {
	tr := obs.New()
	parent := tr.Start("eval")
	ctx := obs.WithSpan(obs.WithTracer(context.Background(), tr), parent)

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("re-raised %T, want *Panic", r)
				}
				err = p
			}
		}()
		return For(ctx, 4, 100, func(_, i int) {
			if i == 13 {
				panic("boom")
			}
		})
	}()
	var p *Panic
	if !errors.As(err, &p) {
		t.Fatalf("err = %v, want *Panic", err)
	}
	parent.End()

	for _, sp := range tr.Snapshot() {
		if sp.Open {
			t.Fatalf("span %q (lane %d) left open after worker panic", sp.Name, sp.Lane)
		}
	}
	if n := len(tr.ActiveSpans()); n != 0 {
		t.Fatalf("%d spans still active after panic", n)
	}
}

// TestNoLaneSpansWithoutRecording: on the default (no-op) path, workers
// must not open spans — the guard that keeps untraced runs overhead-free —
// and the serial path must not open lanes even when recording.
func TestNoLaneSpansWithoutRecording(t *testing.T) {
	// No tracer installed at all.
	if err := For(context.Background(), 4, 50, func(_, _ int) {}); err != nil {
		t.Fatal(err)
	}

	// Recording tracer, but serial execution: the single inline "worker" is
	// the caller itself, no lane to open.
	tr := obs.New()
	parent := tr.Start("eval")
	ctx := obs.WithSpan(obs.WithTracer(context.Background(), tr), parent)
	if err := For(ctx, 1, 50, func(_, _ int) {}); err != nil {
		t.Fatal(err)
	}
	parent.End()
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("serial run recorded %d spans, want just the parent", len(spans))
	}
}
