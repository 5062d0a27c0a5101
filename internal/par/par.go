// Package par is the shared worker-pool helper of the analysis pipeline.
// The simulator (sim), disjoint-cut builder (cut), change-propagation-
// matrix builders (cpm) and LAC evaluator (lac) all fan their independent
// per-item work out through this package instead of hand-rolling
// goroutine and chunking logic, so a thread count means the same thing
// everywhere:
//
//	threads ≤ 0  →  runtime.GOMAXPROCS(0) workers (use every CPU)
//	threads == 1 →  serial, on the calling goroutine
//	threads > 1  →  that many workers
//
// Requesting more workers than CPUs is allowed (they time-share); a pool
// never uses more workers than there are items. Results must be collected
// into index-addressed slots — every fan-out here hands the callback the
// item index, so writing out[i] from the worker that processed item i
// yields output that is bit-identical to a serial pass regardless of the
// worker count or scheduling order.
//
// Two failure paths are handled for every fan-out:
//
//   - A callback panic is recovered inside the worker, the remaining
//     workers drain (no new items are handed out), and the first panic is
//     re-raised on the calling goroutine as an item-attributed *Panic —
//     recoverable by the caller, instead of an unjoined WaitGroup killing
//     the whole process.
//   - For/ForEach take a context and stop handing out items once it is
//     cancelled, returning ctx.Err(). Per-item results computed before the
//     cancel are valid; the overall output is partial and the caller must
//     discard it. Callers that cannot be cancelled pass
//     context.Background() (or nil) and may ignore the error.
//
// When the context carries a recording obs span (obs.WithSpan), every
// worker goroutine additionally opens a child span in its own lane —
// the thread-per-worker tracks of a Perfetto trace — closed by defer even
// when the callback panics. Without a recording span (every production
// run) no span is created and the fan-out is unchanged.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dpals/internal/obs"
)

// Workers resolves a Threads option value to an effective worker count:
// ≤ 0 selects runtime.GOMAXPROCS(0), anything else is returned as-is.
// This is the single clamp site for the whole pipeline.
func Workers(threads int) int {
	if threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return threads
}

// Panic carries a panic that escaped a For callback: the index of
// the item whose callback panicked, the original panic value, and the
// stack of the panicking goroutine. For re-raises it on the calling
// goroutine, so `recover()` there observes a *Panic and can attribute the
// failure to one item. Panic also implements error for callers that
// prefer to convert it.
type Panic struct {
	Item  int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: callback panicked on item %d: %v", p.Item, p.Value)
}

// Unwrap exposes the original panic value when it was an error.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// call invokes fn(worker, i), converting a callback panic into an
// item-attributed *Panic instead of letting it unwind the worker.
func call(fn func(worker, i int), worker, i int) (p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			p = &Panic{Item: i, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(worker, i)
	return nil
}

// For runs fn(worker, i) for every i in [0, n), fanned out over
// Workers(threads) workers (never more than n), and returns when all
// calls have finished. Items are handed out dynamically, so callers must
// not rely on any processing order — only on the per-index results they
// write. With an effective worker count of 1 everything runs on the
// calling goroutine in index order, with zero synchronisation.
//
// The worker argument is in [0, effective workers) and is stable for the
// lifetime of one goroutine, making it safe to index per-worker scratch
// allocated with one slot per worker (see ScratchSlots).
//
// Cancellation is cooperative: once ctx is cancelled, no new items are
// handed out, in-flight callbacks finish, and For returns ctx.Err(). A
// non-nil return means the run is partial — callers must discard the
// output. A nil ctx is never cancelled.
//
// A panicking callback re-raises as a *Panic on the caller; see Panic.
func For(ctx context.Context, threads, n int, fn func(worker, i int)) error {
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	workers := Workers(threads)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done() {
				return ctx.Err()
			}
			if p := call(fn, 0, i); p != nil {
				panic(p)
			}
		}
		if done() {
			return ctx.Err()
		}
		return nil
	}
	// When a recording span rides on ctx (the engine installs its current
	// analysis-step span there), each worker opens one child span in its
	// own Perfetto lane — the thread-per-worker tracks of the trace. The
	// defer closes the lane even when the callback panics, so a trace
	// flushed after a par.Panic re-raise has no dangling worker spans. On
	// the production no-trace path parent is nil (or non-recording) and no
	// span is created.
	parent := obs.SpanFrom(ctx)
	var (
		next int64
		stop atomic.Bool
		mu   sync.Mutex
		pan  *Panic
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			processed := 0
			if parent.Recording() {
				lane := parent.ChildLane(parent.Name(), worker+1)
				defer func() {
					lane.SetInt("items", int64(processed))
					lane.End()
				}()
			}
			for !stop.Load() {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if done() {
					stop.Store(true)
					return
				}
				if p := call(fn, worker, i); p != nil {
					mu.Lock()
					if pan == nil {
						pan = p
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				processed++
			}
		}(w)
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	if done() {
		return ctx.Err()
	}
	return nil
}

// ForEach is For over a slice: fn(worker, item) for every item.
func ForEach[T any](ctx context.Context, threads int, items []T, fn func(worker int, item T)) error {
	return For(ctx, threads, len(items), func(w, i int) { fn(w, items[i]) })
}

// ScratchSlots returns the number of per-worker scratch slots a caller
// needs for For/ForEach runs over up to n items: min(Workers(threads), n),
// at least 1.
func ScratchSlots(threads, n int) int {
	workers := Workers(threads)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
