package core_test

import (
	"context"
	"fmt"
	"testing"

	"dpals/internal/aig"
	"dpals/internal/core"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/obs"
	"dpals/internal/oracle"
)

// The enumeration twins of the SAT-certified WCE tests in wce_test.go, on
// the 2^7 inputs of MultU(4, 3). At 512 patterns every run enumerates its
// input space and proves its bound by that enumeration; at 64 it samples,
// and certifies by a streamed enumeration (sim.WorstCase) instead, taking
// the replay path when a checkpoint fails. Every flow must spend no SAT
// call, record method "enum" on each cert span, and report the exact
// worst case — checked against the oracle's independent enumeration — as
// its certificate.
func TestWCEAllFlowsCertifiedByEnumeration(t *testing.T) {
	g := gen.MultU(4, 3)
	const bound = 6
	for _, patterns := range []int{512, 64} {
		for _, flow := range []core.Flow{core.FlowConventional, core.FlowVECBEE, core.FlowAccALS, core.FlowDP, core.FlowDPSA} {
			for _, every := range []int{1, 8} {
				opt := core.Options{
					Flow: flow, Metric: metric.WCE, WCEBound: bound, CertEvery: every,
					Patterns: patterns, Threads: 1, MaxIters: 20,
				}
				res := checkEnumCertified(t, g, opt)
				if res.Stats.Applied == 0 {
					t.Fatalf("%v at %d patterns: no LAC applied; the check is vacuous", flow, patterns)
				}
				if patterns == 64 && res.Stats.CertRollbacks == 0 {
					t.Errorf("%v CertEvery %d: no checkpoint failed at 64 patterns, so the replay went untested", flow, every)
				}
			}
		}
	}
}

// checkEnumCertified runs g under opt, which CertifiesByEnumeration must
// admit, and checks the certificate: no SAT call, a cert span with method
// "enum" and no other, and CertifiedWCE equal to the exact worst case and
// within the bound.
func checkEnumCertified(t *testing.T, g *aig.Graph, opt core.Options) *core.Result {
	t.Helper()
	if !core.CertifiesByEnumeration(g, opt.Resolved()) {
		t.Fatalf("%d inputs, %d ANDs, %d patterns: not certified by enumeration", g.NumPIs(), g.NumAnds(), opt.Patterns)
	}
	tr := obs.New()
	res, err := core.Run(obs.WithTracer(context.Background(), tr), g, opt, core.Hooks{})
	if err != nil {
		t.Fatalf("%v: %v", opt.Flow, err)
	}
	st := res.Stats
	name := fmt.Sprintf("%v CertEvery %d at %d patterns", opt.Flow, opt.CertEvery, opt.Patterns)
	if st.CertCalls != 0 {
		t.Errorf("%s: %d SAT calls", name, st.CertCalls)
	}
	certs := 0
	for _, sp := range tr.Snapshot() {
		if sp.Name != "cert" {
			continue
		}
		certs++
		if m := attr(sp, "method"); m != "enum" {
			t.Errorf("%s: cert span method %v, want enum", name, m)
		}
	}
	if certs == 0 {
		t.Errorf("%s: no cert span", name)
	}
	ex, err := oracle.Exact(g, res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CertifiedWCE != ex.WCE || st.CertifiedWCE > opt.WCEBound {
		t.Errorf("%s: certified WCE %d, exact worst case %d, bound %d", name, st.CertifiedWCE, ex.WCE, opt.WCEBound)
	}
	return res
}

// A 14-input multiplier is hard for SAT (a single worst-case search on
// one of its approximations takes seconds) and cheap to enumerate: 2^14
// inputs × 462 ANDs is within the streamed budget. A DP run that samples
// it must certify every checkpoint and the final bound by enumeration,
// with no SAT call.
func TestStreamedCertificationSpendsNoSAT(t *testing.T) {
	g := gen.MultU(7, 7)
	res := checkEnumCertified(t, g, core.Options{
		Flow: core.FlowDP, Metric: metric.WCE, WCEBound: 32, Patterns: 4096,
		Seed: 1, Threads: 1, MaxIters: 12,
	})
	if res.Stats.Applied == 0 {
		t.Fatal("no LAC applied; the check is vacuous")
	}
}

// The rule reads only sizes: enumeration when the run's patterns cover
// the input space, or when 2^inputs × max(ANDs, outputs) ≤ 2^26; SAT
// beyond, for other metrics, and when the output weights cannot sum
// exactly.
func TestCertifiesByEnumerationRule(t *testing.T) {
	wce := func(patterns int) core.Options {
		return core.Options{Flow: core.FlowDP, Metric: metric.WCE, WCEBound: 1, Patterns: patterns}.Resolved()
	}
	for _, tc := range []struct {
		name string
		g    *aig.Graph
		opt  core.Options
		want bool
	}{
		{"run enumerates", gen.MultU(3, 3), wce(64), true},
		{"mac4 streams", gen.MAC(4), wce(4096), true},
		{"multu7x7 streams", gen.MultU(7, 7), wce(4096), true},
		{"mac5 beyond", gen.MAC(5), wce(4096), false},
		{"adder16 beyond", gen.Adder(16), wce(4096), false},
		{"96 inputs", gen.Adder(48), wce(4096), false},
		{"54 outputs", gen.Adder(53), wce(4096), false},
		{"metric MED", gen.MultU(3, 3), core.Options{Flow: core.FlowDP, Metric: metric.MED, Threshold: 1}.Resolved(), false},
	} {
		if got := core.CertifiesByEnumeration(tc.g, tc.opt); got != tc.want {
			t.Errorf("%s (%d inputs, %d ANDs): %v, want %v", tc.name, tc.g.NumPIs(), tc.g.NumAnds(), got, tc.want)
		}
	}
}

// attr returns the value of sp's attribute key, or nil.
func attr(sp obs.SpanData, key string) any {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// The engine counts its own SAT calls: on runs of a 16-bit adder, whose
// 2^32 inputs are beyond CertifiesByEnumeration and so certify by SAT,
// through checkpoints, replays and the final tightening session,
// Stats.CertCalls must equal the number of cert spans with method "sat",
// and each such span's sat_calls must be the running count.
func TestCertCallsCountEverySATProbe(t *testing.T) {
	g := gen.Adder(16)
	for _, flow := range []core.Flow{core.FlowConventional, core.FlowAccALS, core.FlowDP, core.FlowDPSA} {
		for _, every := range []int{1, 8} {
			opt := core.Options{
				Flow: flow, Metric: metric.WCE, WCEBound: 6, CertEvery: every,
				Patterns: 64, Threads: 1, MaxIters: 20,
			}
			tr := obs.New()
			res, err := core.Run(obs.WithTracer(context.Background(), tr), g, opt, core.Hooks{})
			if err != nil {
				t.Fatalf("%v: %v", flow, err)
			}
			calls, tightening := 0, 0
			for _, sp := range tr.Snapshot() {
				if sp.Name != "cert" || attr(sp, "method") != "sat" {
					continue
				}
				calls++
				if attr(sp, "bound") != int64(opt.WCEBound) {
					tightening++
				}
				if n := attr(sp, "sat_calls"); n != int64(calls) {
					t.Errorf("%v CertEvery %d: SAT cert span %d records sat_calls %v", flow, every, calls, n)
				}
			}
			if calls == 0 {
				t.Fatalf("%v CertEvery %d: no SAT call; the check is vacuous", flow, every)
			}
			if res.Stats.CertRollbacks == 0 || tightening == 0 {
				t.Errorf("%v CertEvery %d: %d replays, %d tightening probes; want both", flow, every, res.Stats.CertRollbacks, tightening)
			}
			if res.Stats.CertCalls != calls {
				t.Errorf("%v CertEvery %d: Stats.CertCalls %d, %d SAT cert spans", flow, every, res.Stats.CertCalls, calls)
			}
		}
	}
}
