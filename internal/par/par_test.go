package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersSemantics(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{-3, gmp}, {0, gmp}, {1, 1}, {2, 2}, {64, 64},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 7, 0} {
		const n = 1000
		hits := make([]int32, n)
		For(context.Background(), threads, n, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d processed %d times", threads, i, h)
			}
		}
	}
}

func TestForSerialRunsInOrder(t *testing.T) {
	var order []int
	For(context.Background(), 1, 5, func(w, i int) {
		if w != 0 {
			t.Errorf("serial run used worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestForWorkerIDsAreDistinctSlots(t *testing.T) {
	const threads, n = 4, 256
	slots := ScratchSlots(threads, n)
	if slots != 4 {
		t.Fatalf("ScratchSlots(4, 256) = %d", slots)
	}
	// Each worker increments only its own slot; sums must add up to n and
	// no out-of-range worker id may appear (panic would fail the test).
	counts := make([]int64, slots)
	For(context.Background(), threads, n, func(w, _ int) { atomic.AddInt64(&counts[w], 1) })
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != n {
		t.Fatalf("worker slot counts sum to %d, want %d", sum, n)
	}
}

func TestForMoreWorkersThanItems(t *testing.T) {
	if got := ScratchSlots(16, 3); got != 3 {
		t.Errorf("ScratchSlots(16, 3) = %d, want 3", got)
	}
	hits := make([]int32, 3)
	For(context.Background(), 16, 3, func(w, i int) {
		if w < 0 || w >= 3 {
			t.Errorf("worker id %d out of range for 3 items", w)
		}
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d processed %d times", i, h)
		}
	}
}

func TestForEmpty(t *testing.T) {
	For(context.Background(), 0, 0, func(_, _ int) { t.Error("fn called for n=0") })
	ForEach(context.Background(), 4, []int(nil), func(_ int, _ int) { t.Error("fn called for empty slice") })
	if got := ScratchSlots(8, 0); got != 1 {
		t.Errorf("ScratchSlots(8, 0) = %d, want 1", got)
	}
}

func TestForEachPassesItems(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	seen := make([]int32, len(items))
	ForEach(context.Background(), 2, items, func(_ int, it string) {
		atomic.AddInt32(&seen[int(it[0]-'a')], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Errorf("item %d seen %d times", i, c)
		}
	}
}

// A panicking callback must surface as a recoverable, item-attributed
// *Panic on the caller — not crash the process from a worker goroutine.
// This is a regression test: the pre-hardening pool let worker panics
// escape on their own goroutine, killing the process mid-WaitGroup.
func TestForCallbackPanicIsRecoverable(t *testing.T) {
	for _, threads := range []int{1, 4, 0} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("threads=%d: panic did not propagate", threads)
				}
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("threads=%d: recovered %T, want *par.Panic", threads, r)
				}
				if p.Item != 13 {
					t.Errorf("threads=%d: panic attributed to item %d, want 13", threads, p.Item)
				}
				if p.Value != "boom" {
					t.Errorf("threads=%d: panic value %v, want \"boom\"", threads, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("threads=%d: panic carries no stack", threads)
				}
			}()
			For(context.Background(), threads, 64, func(_, i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

// After a worker panics, the pool must drain: no goroutine may be left
// blocked, and the remaining items are simply not processed.
func TestForPanicStopsRemainingWork(t *testing.T) {
	var processed int32
	func() {
		defer func() { recover() }()
		For(context.Background(), 4, 10000, func(_, i int) {
			if i == 0 {
				panic("first")
			}
			atomic.AddInt32(&processed, 1)
		})
	}()
	if n := atomic.LoadInt32(&processed); n >= 10000 {
		t.Errorf("pool processed all %d items despite the panic", n)
	}
}

func TestForCtxCancellation(t *testing.T) {
	for _, threads := range []int{1, 4, 0} {
		ctx, cancel := context.WithCancel(context.Background())
		var processed int32
		err := For(ctx, threads, 100000, func(_, i int) {
			if atomic.AddInt32(&processed, 1) == 50 {
				cancel()
			}
		})
		cancel()
		if err != context.Canceled {
			t.Errorf("threads=%d: For = %v, want context.Canceled", threads, err)
		}
		if n := atomic.LoadInt32(&processed); n >= 100000 {
			t.Errorf("threads=%d: all items ran despite cancellation", threads)
		}
	}
}

func TestForCtxNilAndUncancelled(t *testing.T) {
	if err := For(nil, 4, 100, func(_, i int) {}); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
	if err := For(context.Background(), 4, 100, func(_, i int) {}); err != nil {
		t.Errorf("background ctx: %v", err)
	}
}
