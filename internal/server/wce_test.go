package server

import (
	"net/http"
	"strings"
	"testing"

	"dpals"
)

// wceJob is a WCE job on a 4-bit adder, sampled at 128 patterns. Its 2^8
// inputs are few enough to certify by enumeration.
func wceJob(t *testing.T, bound uint64) map[string]any {
	return wceJobOn(t, dpals.NewAdder(4), bound)
}

// satWCEJob is a WCE job on a 16-bit adder: its 2^32 inputs are beyond
// core.CertifiesByEnumeration, so the job certifies by SAT.
func satWCEJob(t *testing.T, bound uint64) map[string]any {
	return wceJobOn(t, dpals.NewAdder(16), bound)
}

func wceJobOn(t *testing.T, c *dpals.Circuit, bound uint64) map[string]any {
	return map[string]any{
		"circuit":             circuitAIGER(t, c),
		"flow":                "dp",
		"metric":              "wce",
		"wce_bound":           bound,
		"cert_conflict_limit": 100000,
		"patterns":            128,
	}
}

// The server must refuse WCE jobs whose SAT certification budget is
// uncapped: such a call cannot be cancelled cooperatively, so whether the
// job completes or hits its deadline would depend on wall clock — an
// uncacheable, unboundable job.
func TestServerRejectsUncappedWCECert(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	job := satWCEJob(t, 2)
	delete(job, "cert_conflict_limit")
	code, _ := submit(t, ts, job)
	if code != http.StatusBadRequest {
		t.Fatalf("WCE job without cert_conflict_limit: status %d, want 400", code)
	}
	job["cert_conflict_limit"] = 0
	if code, _ := submit(t, ts, job); code != http.StatusBadRequest {
		t.Fatalf("WCE job with cert_conflict_limit 0: status %d, want 400", code)
	}
	job["cert_conflict_limit"] = -5
	if code, _ := submit(t, ts, job); code != http.StatusBadRequest {
		t.Fatalf("WCE job with negative cert_conflict_limit: status %d, want 400", code)
	}

	// Weighted WCE and wce_bound on another metric are config errors too.
	wj := wceJob(t, 2)
	wj["weights"] = []float64{1, 2, 4, 8, 16}
	if code, _ := submit(t, ts, wj); code != http.StatusBadRequest {
		t.Fatalf("weighted WCE job: status %d, want 400", code)
	}
	ej := smallJob(t, 1)
	ej["wce_bound"] = 3
	if code, _ := submit(t, ts, ej); code != http.StatusBadRequest {
		t.Fatalf("wce_bound on metric er: status %d, want 400", code)
	}
}

// Uncapped WCE jobs that certify by enumeration never reach SAT, so the
// server accepts them: every flow answers 200 with a certificate within
// the bound, and no SAT call.
func TestServerAcceptsUncappedEnumeratedWCE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, flow := range []string{"conventional", "vecbee", "accals", "dp", "dpsa"} {
		job := wceJob(t, 3)
		job["flow"] = flow
		delete(job, "cert_conflict_limit")
		code, resp := submit(t, ts, job)
		if code != http.StatusOK {
			t.Fatalf("%s: uncapped WCE job on a 4-bit adder: status %d, want 200", flow, code)
		}
		if resp.CertifiedWCE > 3 || resp.CertCalls != 0 {
			t.Errorf("%s: certified_wce %d (bound 3), %d SAT calls (want 0)", flow, resp.CertifiedWCE, resp.CertCalls)
		}
	}
}

// A completed WCE job answers with a certified bound within budget and is
// served from the cache — certified bound included — on resubmission.
func TestServerWCEJobCertifiedAndCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, first := submit(t, ts, satWCEJob(t, 3))
	if code != http.StatusOK {
		t.Fatalf("WCE job: status %d", code)
	}
	if first.Cache != "miss" {
		t.Fatalf("first WCE submission cache = %q, want miss", first.Cache)
	}
	if first.CertifiedWCE > 3 {
		t.Fatalf("certified_wce %d exceeds wce_bound 3", first.CertifiedWCE)
	}
	if first.Applied > 0 && first.CertCalls == 0 {
		t.Fatal("applied LACs but report zero certification calls")
	}
	code, second := submit(t, ts, satWCEJob(t, 3))
	if code != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("resubmission: status %d cache %q, want 200/hit", code, second.Cache)
	}
	if second.Circuit != first.Circuit || second.CertifiedWCE != first.CertifiedWCE || second.CertCalls != first.CertCalls {
		t.Fatal("cache hit lost or altered the certified WCE result")
	}
}

// The enumeration twin of TestServerWCEJobCertifiedAndCached: with 512
// patterns the adder's 2^8 inputs are enumerated, so every flow certifies
// without SAT and answers with the exact worst case, which an independent
// exhaustive measurement of the returned circuit must reproduce.
func TestServerWCEJobCertifiedByEnumeration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := dpals.NewAdder(4)
	for _, flow := range []string{"conventional", "vecbee", "accals", "dp", "dpsa"} {
		job := wceJob(t, 3)
		job["flow"] = flow
		job["patterns"] = 512
		code, resp := submit(t, ts, job)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", flow, code)
		}
		if resp.Applied == 0 {
			t.Fatalf("%s: no LAC applied; the check is vacuous", flow)
		}
		if resp.CertCalls != 0 {
			t.Errorf("%s: %d SAT calls on an enumerated input space", flow, resp.CertCalls)
		}
		approx, err := dpals.ReadAIGER(strings.NewReader(resp.Circuit))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := dpals.MeasureErrorExact(orig, approx, dpals.WCE, nil)
		if err != nil {
			t.Fatal(err)
		}
		if float64(resp.CertifiedWCE) != exact || resp.CertifiedWCE > 3 {
			t.Errorf("%s: certified_wce %d, exact worst case %v, bound 3", flow, resp.CertifiedWCE, exact)
		}
	}
}

// Cache-key regression (the satellite): the key must separate jobs that
// differ only in a WCE certification knob — each knob influences the
// result bits, so a shared entry would poison results.
func TestServerWCEOptionsInCacheKey(t *testing.T) {
	c := dpals.NewAdder(4)
	base := dpals.Options{
		Flow:              dpals.DP,
		Metric:            dpals.WCE,
		WCEBound:          2,
		CertConflictLimit: 100000,
		Patterns:          512,
	}
	k0 := cacheKey(c, base)

	bound := base
	bound.WCEBound = 3
	if cacheKey(c, bound) == k0 {
		t.Fatal("cache key ignores WCEBound")
	}
	every := base
	every.CertEvery = 4 // base resolves to the default 8
	if cacheKey(c, every) == k0 {
		t.Fatal("cache key ignores CertEvery")
	}
	limit := base
	limit.CertConflictLimit = 200000
	if cacheKey(c, limit) == k0 {
		t.Fatal("cache key ignores CertConflictLimit")
	}

	// The documented CertEvery default: 0 and 8 resolve identically, so
	// they must share one entry.
	def := base
	def.CertEvery = 8
	if cacheKey(c, def) != k0 {
		t.Fatal("CertEvery 0 and its resolved default 8 produce different keys")
	}

	// For non-WCE metrics the certification knobs are inert and must not
	// fragment the cache.
	er := dpals.Options{Flow: dpals.DP, Metric: dpals.ER, Threshold: 0.05, Patterns: 512}
	erKnob := er
	erKnob.CertEvery = 4
	erKnob.CertConflictLimit = 7
	if cacheKey(c, erKnob) != cacheKey(c, er) {
		t.Fatal("inert certification knobs fragment the cache for non-WCE metrics")
	}
}
