package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress renders a live single-line status of a running synthesis to a
// terminal: the applied-LAC iteration count, the current AND-node count,
// the error against its budget, and a time-to-completion estimate. The
// engine calls Update at every iteration boundary; rendering is
// rate-limited so the callback cost stays negligible and the terminal is
// not flooded.
//
// The estimate leans on the quantity the dual-phase self-adaption
// (§III-D) itself steers by: the consumed fraction f = E/E_b of the error
// budget. Iterative ALS flows stop when the budget is exhausted, and the
// budget is consumed roughly linearly in wall-clock time once the run is
// under way, so remaining ≈ elapsed·(1−f)/f. The estimate is display-only
// — Progress reads engine state and never influences it.
//
// All methods are nil-safe, so the engine can call them unconditionally.
type Progress struct {
	w     io.Writer
	fn    func(iter, ands int, err, budget float64)
	every time.Duration

	mu      sync.Mutex
	start   time.Time
	last    time.Time
	width   int  // widest line rendered, for \r overwrite padding
	wrote   bool // anything rendered yet (Done emits the final newline)
	done    bool
	renders int64
}

// NewProgress returns a renderer writing to w at most once per `every`
// (≤ 0 selects 100ms). Pass the terminal's stderr; the line is rewritten
// in place with a leading carriage return.
func NewProgress(w io.Writer, every time.Duration) *Progress {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &Progress{w: w, every: every, start: time.Now()}
}

// NewProgressFunc returns a renderer that forwards each rate-limited
// update to fn instead of drawing a terminal line — the hook the alsd
// server uses to fan progress out to SSE subscribers. fn runs on the
// engine's goroutine under the Progress mutex and must not block; hand
// the event to a channel or drop it. `every` ≤ 0 selects 100ms.
func NewProgressFunc(fn func(iter, ands int, err, budget float64), every time.Duration) *Progress {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &Progress{fn: fn, every: every, start: time.Now()}
}

// Update renders the current state if the rate limit allows. iter is the
// applied-LAC count, ands the current AND-node count, err the current
// error and budget the bound E_b it is allowed to reach.
func (p *Progress) Update(iter, ands int, err, budget float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	now := time.Now()
	if p.renders > 0 && now.Sub(p.last) < p.every {
		return
	}
	p.render(iter, ands, err, budget, now)
}

// Done finalises the line: renders nothing new, but terminates the
// in-place line with a newline so subsequent output starts clean.
// Idempotent; a Progress that never rendered writes nothing.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	if p.wrote {
		fmt.Fprintln(p.w)
	}
}

// Renders returns how many lines were rendered (for tests).
func (p *Progress) Renders() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.renders
}

func (p *Progress) render(iter, ands int, err, budget float64, now time.Time) {
	p.last = now
	p.renders++
	if p.fn != nil {
		p.fn(iter, ands, err, budget)
		return
	}
	line := progressLine(iter, ands, err, budget, now.Sub(p.start))
	pad := ""
	if n := p.width - len(line); n > 0 {
		for i := 0; i < n; i++ {
			pad += " "
		}
	}
	if len(line) > p.width {
		p.width = len(line)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.wrote = true
}

// progressLine formats one status line. Pure so tests can pin the format.
func progressLine(iter, ands int, err, budget float64, elapsed time.Duration) string {
	frac := 0.0
	if budget > 0 {
		frac = err / budget
	}
	eta := "eta --"
	if frac > 0 && frac <= 1 {
		left := time.Duration(float64(elapsed) * (1 - frac) / frac)
		eta = "eta ~" + left.Round(100*time.Millisecond).String()
	}
	return fmt.Sprintf("iter %d  ANDs %d  err %.3g/%.3g (%.1f%%)  %s  %s",
		iter, ands, err, budget, 100*frac, elapsed.Round(100*time.Millisecond), eta)
}
