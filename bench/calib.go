package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark host's speed drifts: on the 2-vCPU machine the baseline was
// measured on, the same jobs ran up to a third slower for minutes at a time.
// A fixed CPU-bound loop slows down with them (their run medians correlated
// at 0.96 over twelve 15-second runs), so every run times that loop between
// its passes and reports each time scaled to the loop's nominal speed:
// time × calNominal ÷ (median loop time). That removes most of the drift
// and none of a change in the program, which never runs during the loop.
// The raw factor is in the out file as host_speed.

// calNominal is the loop's time on a quiet host; it only fixes the scale of
// the reported times.
const calNominal = 44 * time.Millisecond

var calSink atomic.Uint64

// calibrate runs the loop on every P at once and returns the mean time of
// one run of it. The loop keeps its state in a 16 KiB table, inside the L1
// cache: a memory-bound loop tracks the drift far worse.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	times := make([]time.Duration, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			var buf [2048]uint64
			x := uint64(g + 1)
			for i := 0; i < 30_000_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				buf[(x>>20)&2047] += x
			}
			calSink.Add(x + buf[x&2047])
			times[g] = time.Since(t0)
		}(g)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(n)
}

// calibration collects loop times over a run.
type calibration struct {
	times []float64
	last  time.Time
}

// sample times the loop k times.
func (c *calibration) sample(k int) {
	for i := 0; i < k; i++ {
		c.times = append(c.times, calibrate().Seconds())
	}
	c.last = time.Now()
}

// maybe times the loop once if a second has passed since the last sample,
// which keeps its cost near 4% of the window.
func (c *calibration) maybe() {
	if time.Since(c.last) >= time.Second {
		c.sample(1)
	}
}

// speed is the host's speed relative to nominal: below 1 when slow.
func (c *calibration) speed() float64 {
	return calNominal.Seconds() / median(c.times)
}
