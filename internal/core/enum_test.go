package core_test

import (
	"context"
	"testing"

	"dpals/internal/core"
	"dpals/internal/gen"
	"dpals/internal/metric"
	"dpals/internal/obs"
	"dpals/internal/oracle"
)

// The enumeration twins of the SAT-certified WCE tests in wce_test.go: the
// 2^7 inputs of MultU(4, 3) fit 512 patterns, so every run enumerates its
// input space and proves its bound by that enumeration. Every flow must
// then spend no SAT call, record method "enum" on each cert span, and
// report the exact worst case — checked against the oracle's independent
// enumeration — as its certificate.
func TestWCEAllFlowsCertifiedByEnumeration(t *testing.T) {
	g := gen.MultU(4, 3)
	const bound = 6
	for _, flow := range []core.Flow{core.FlowConventional, core.FlowVECBEE, core.FlowAccALS, core.FlowDP, core.FlowDPSA} {
		for _, every := range []int{1, 8} {
			opt := core.Options{
				Flow: flow, Metric: metric.WCE, WCEBound: bound, CertEvery: every,
				Patterns: 512, Threads: 1, MaxIters: 20,
			}
			tr := obs.New()
			res, err := core.Run(obs.WithTracer(context.Background(), tr), g, opt, core.Hooks{})
			if err != nil {
				t.Fatalf("%v: %v", flow, err)
			}
			st := res.Stats
			if st.Applied == 0 {
				t.Fatalf("%v: no LAC applied; the check is vacuous", flow)
			}
			if st.CertCalls != 0 {
				t.Errorf("%v CertEvery %d: %d SAT calls on an enumerated input space", flow, every, st.CertCalls)
			}
			certs := 0
			for _, sp := range tr.Snapshot() {
				if sp.Name != "cert" {
					continue
				}
				certs++
				if m := attr(sp, "method"); m != "enum" {
					t.Errorf("%v CertEvery %d: cert span method %v, want enum", flow, every, m)
				}
			}
			if certs == 0 {
				t.Errorf("%v CertEvery %d: no cert span", flow, every)
			}
			ex, err := oracle.Exact(g, res.Graph, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.CertifiedWCE != ex.WCE || st.CertifiedWCE > bound {
				t.Errorf("%v CertEvery %d: certified WCE %d, exact worst case %d, bound %d",
					flow, every, st.CertifiedWCE, ex.WCE, bound)
			}
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

// The engine counts its own SAT calls: on runs that sample the 2^7 inputs
// of MultU(4, 3) (64 patterns) and so certify by SAT, through checkpoints,
// replays and the final tightening session, Stats.CertCalls must equal the
// number of cert spans with method "sat", and each such span's sat_calls
// must be the running count.
func TestCertCallsCountEverySATProbe(t *testing.T) {
	g := gen.MultU(4, 3)
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
			calls := 0
			for _, sp := range tr.Snapshot() {
				if sp.Name != "cert" || attr(sp, "method") != "sat" {
					continue
				}
				calls++
				if n := attr(sp, "sat_calls"); n != int64(calls) {
					t.Errorf("%v CertEvery %d: SAT cert span %d records sat_calls %v", flow, every, calls, n)
				}
			}
			if calls == 0 {
				t.Fatalf("%v CertEvery %d: no SAT call; the check is vacuous", flow, every)
			}
			if res.Stats.CertCalls != calls {
				t.Errorf("%v CertEvery %d: Stats.CertCalls %d, %d SAT cert spans", flow, every, res.Stats.CertCalls, calls)
			}
		}
	}
}
