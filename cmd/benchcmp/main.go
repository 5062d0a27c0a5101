// Command benchcmp compares two benchmark result files of the
// results/BENCH_*.json schema and fails when the new run regressed, with a
// noise-aware threshold so routine CI jitter does not flag.
//
// Usage:
//
//	benchcmp [-threshold 0.15] [-min-delta 5ms] old.json new.json
//
// For every mode present in both files it compares ns_per_op,
// allocs_per_op and bytes_per_op. A time regression is flagged only when
// the new time exceeds the old by BOTH the relative threshold and the
// absolute minimum delta — a 20% jump on a 1ms benchmark is noise, on a
// 300ms benchmark it is real. Allocation counts are deterministic, so they
// use the relative threshold alone. Improvements beyond the same gates are
// reported explicitly, so a PR that moves a number can cite the table.
//
// Modes may additionally carry the phase-1 reuse metrics: phase1_ns is
// gated like ns_per_op (both gates), while phase1_reuse_rate and
// cut_updates_incremental are deterministic floor metrics — LOWER is the
// regression (reuse that stops happening), gated by the relative
// threshold alone. All three are skipped when the old file reports them
// as zero or omits them: an older baseline predating the schema, or a
// mode that performs no reuse, gates nothing.
//
// Bogus inputs fail loudly rather than passing vacuously: a mode with a
// zero (or negative) ns_per_op is rejected at load time — a real benchmark
// cannot run in 0ns, so such a baseline would gate nothing — and a mode
// present in the old file but missing from the new one is a regression in
// coverage, not a skip. Modes only in the NEW file are reported as added
// coverage and do not fail.
//
// Exit status: 0 when no metric regressed, 1 on any regression (including
// a vanished mode), 2 on usage, parse or validation errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// benchFile is the subset of the results/BENCH_*.json schema benchcmp
// reads; unknown fields are ignored so the schema can grow.
type benchFile struct {
	Circuit string               `json:"circuit"`
	Modes   map[string]benchMode `json:"modes"`
}

type benchMode struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// Phase-1 reuse metrics (zero when absent from an older baseline or
	// disabled in the mode).
	Phase1Ns        float64 `json:"phase1_ns"`
	Phase1ReuseRate float64 `json:"phase1_reuse_rate"`
	CutUpdates      float64 `json:"cut_updates_incremental"`
}

// row is one metric comparison of the report table.
type row struct {
	mode, metric string
	old, new_    float64
	regressed    bool
	improved     bool
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "relative regression threshold (0.15 = fail beyond +15%)")
	minDelta := flag.Duration("min-delta", 5*time.Millisecond, "absolute time increase below which a relative regression is considered noise")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [flags] old.json new.json")
		flag.Usage()
		os.Exit(2)
	}

	oldB, err := load(flag.Arg(0))
	check(err)
	newB, err := load(flag.Arg(1))
	check(err)

	rows, vanished, added := compare(oldB, newB, *threshold, float64(minDelta.Nanoseconds()))
	for _, m := range added {
		fmt.Fprintf(os.Stderr, "benchcmp: note: mode %q only in new file — added coverage, not compared\n", m)
	}

	bad, better := 0, 0
	fmt.Printf("%-10s %-13s %15s %15s %8s\n", "mode", "metric", "old", "new", "delta")
	for _, r := range rows {
		mark := ""
		switch {
		case r.regressed:
			mark = "  REGRESSED"
			bad++
		case r.improved:
			mark = "  improved"
			better++
		}
		fmt.Printf("%-10s %-13s %15.0f %15.0f %8s%s\n",
			r.mode, r.metric, r.old, r.new_, relString(r.old, r.new_), mark)
	}
	for _, m := range vanished {
		fmt.Printf("%-10s %-13s %15s %15s %8s  REGRESSED (mode vanished)\n", m, "-", "-", "-", "-")
		bad++
	}
	if better > 0 {
		fmt.Printf("\n%d metric(s) improved beyond %.0f%%\n", better, 100**threshold)
	}
	if bad > 0 {
		fmt.Printf("\n%d metric(s) regressed beyond +%.0f%% (old: %s, new: %s)\n",
			bad, 100**threshold, flag.Arg(0), flag.Arg(1))
		os.Exit(1)
	}
	fmt.Printf("\nno regressions beyond +%.0f%%\n", 100**threshold)
}

// compare builds the comparison rows for the modes common to both files, in
// sorted mode order. vanished lists modes present only in the old file
// (lost coverage — the caller must fail on these); added lists modes present
// only in the new file (informational).
func compare(oldB, newB *benchFile, threshold, minDeltaNs float64) (rows []row, vanished, added []string) {
	var modes []string
	for name := range oldB.Modes {
		if _, ok := newB.Modes[name]; ok {
			modes = append(modes, name)
		} else {
			vanished = append(vanished, name)
		}
	}
	for name := range newB.Modes {
		if _, ok := oldB.Modes[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(modes)
	sort.Strings(vanished)
	sort.Strings(added)

	for _, name := range modes {
		o, n := oldB.Modes[name], newB.Modes[name]
		// Time needs both gates: a relative jump that is absolutely tiny is
		// scheduler noise, not a regression. The improvement marker mirrors
		// the regression gates so it is equally noise-proof.
		timeRegressed := n.NsPerOp > o.NsPerOp*(1+threshold) && n.NsPerOp-o.NsPerOp > minDeltaNs
		timeImproved := n.NsPerOp < o.NsPerOp*(1-threshold) && o.NsPerOp-n.NsPerOp > minDeltaNs
		rows = append(rows,
			row{name, "ns/op", o.NsPerOp, n.NsPerOp, timeRegressed, timeImproved},
			countRow(name, "allocs/op", o.AllocsPerOp, n.AllocsPerOp, threshold),
			countRow(name, "bytes/op", o.BytesPerOp, n.BytesPerOp, threshold),
		)
		// Phase-1 reuse metrics gate only against a baseline that has them:
		// a zero old value means an older schema or a mode with reuse
		// disabled by design, and comparing against it would flag noise.
		if o.Phase1Ns > 0 {
			p1Regressed := n.Phase1Ns > o.Phase1Ns*(1+threshold) && n.Phase1Ns-o.Phase1Ns > minDeltaNs
			p1Improved := n.Phase1Ns < o.Phase1Ns*(1-threshold) && o.Phase1Ns-n.Phase1Ns > minDeltaNs
			rows = append(rows, row{name, "phase1 ns", o.Phase1Ns, n.Phase1Ns, p1Regressed, p1Improved})
		}
		if o.Phase1ReuseRate > 0 {
			// As a percentage so the %.0f report column stays readable.
			rows = append(rows, floorRow(name, "p1 reuse %", 100*o.Phase1ReuseRate, 100*n.Phase1ReuseRate, threshold))
		}
		if o.CutUpdates > 0 {
			rows = append(rows, floorRow(name, "cut updates", o.CutUpdates, n.CutUpdates, threshold))
		}
	}
	return rows, vanished, added
}

// floorRow compares a deterministic metric where LOWER is the regression:
// reuse rates and incremental-update counts dropping means the reuse
// machinery stopped firing, even though a conventional count gate would
// call the smaller number an improvement.
func floorRow(mode, metric string, old, new_, threshold float64) row {
	return row{mode, metric, old, new_, new_ < old*(1-threshold), new_ > old*(1+threshold)}
}

// countRow compares a deterministic count metric. A zero old value is a
// legitimate baseline here (a zero-alloc benchmark is the goal state, not
// bad data), and any count appearing on top of it is a regression — the
// relative threshold cannot express that, so it is gated explicitly.
func countRow(mode, metric string, old, new_, threshold float64) row {
	regressed := new_ > old*(1+threshold)
	if old == 0 {
		regressed = new_ > 0
	}
	return row{mode, metric, old, new_, regressed, new_ < old*(1-threshold)}
}

// rel returns the relative change from old to new. +Inf when climbing off a
// zero baseline; 0 when both are zero.
func rel(old, new_ float64) float64 {
	if old == 0 {
		if new_ == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new_ - old) / old
}

// relString formats rel for the report table, avoiding a misleading
// "+0.0%" on zero-baseline climbs.
func relString(old, new_ float64) string {
	r := rel(old, new_)
	if math.IsInf(r, 1) {
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", 100*r)
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Modes) == 0 {
		return nil, fmt.Errorf("%s: no \"modes\" in file (not a BENCH_*.json?)", path)
	}
	// A benchmark cannot take zero time; a mode with ns_per_op <= 0 is a
	// truncated or hand-edited file, and comparing against it would gate
	// nothing. Counts may legitimately be zero.
	for name, m := range b.Modes {
		if m.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: mode %q has ns_per_op %v — corrupt or zero baseline", path, name, m.NsPerOp)
		}
		if m.AllocsPerOp < 0 || m.BytesPerOp < 0 {
			return nil, fmt.Errorf("%s: mode %q has negative counts — corrupt baseline", path, name)
		}
		if m.Phase1Ns < 0 || m.Phase1ReuseRate < 0 || m.CutUpdates < 0 {
			return nil, fmt.Errorf("%s: mode %q has negative phase-1 metrics — corrupt baseline", path, name)
		}
	}
	return &b, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
}
