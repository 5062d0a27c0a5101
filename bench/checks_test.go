package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dpals"
	"dpals/internal/server"
)

// synthesise approximates c under opt and fails the test unless the run
// actually changed the circuit.
func synthesise(t *testing.T, c *dpals.Circuit, opt dpals.Options) *dpals.Result {
	t.Helper()
	res, err := dpals.Approximate(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied == 0 {
		t.Fatal("nothing applied: the test needs a circuit that was actually approximated")
	}
	return res
}

// flipFanin negates the first fanin of the last AND gate of c's AIGER text.
func flipFanin(t *testing.T, c *dpals.Circuit) *dpals.Circuit {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteAIGER(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	h := strings.Fields(lines[0]) // aag M I L O A
	nums := make([]int, 5)
	for i := range nums {
		nums[i], _ = strconv.Atoi(h[i+1])
	}
	last := nums[1] + nums[2] + nums[3] + nums[4] // header is line 0
	f := strings.Fields(lines[last])
	rhs0, _ := strconv.Atoi(f[1])
	lines[last] = fmt.Sprintf("%s %d %s", f[0], rhs0^1, f[2])
	out, err := dpals.ReadAIGER(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckSampledCatchesFlippedFanin(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, false)
	opt := dpals.Options{Flow: dpals.DPSA, Metric: dpals.MED, Threshold: 4, Patterns: 512, Seed: 7, Threads: 1}
	res := synthesise(t, c, opt)
	if err := checkSampled(c, res.Circuit, opt, res.Error); err != nil {
		t.Fatalf("faithful result rejected: %v", err)
	}
	if err := checkSampled(c, flipFanin(t, res.Circuit), opt, res.Error); err == nil {
		t.Fatal("a flipped AND fanin went unnoticed")
	}
	if err := checkSampled(c, res.Circuit, opt, res.Error*1.01+1e-3); err == nil {
		t.Fatal("a misreported error went unnoticed")
	}
}

func TestCheckWCECatchesForgedBound(t *testing.T) {
	c := dpals.NewMultiplier(4, 4, false)
	opt := dpals.Options{Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 16, Patterns: 512, Seed: 3,
		CertConflictLimit: 200000, Threads: 1}
	res := synthesise(t, c, opt)
	cert := res.Stats.CertifiedWCE
	if err := checkWCE(c, res.Circuit, cert, opt.WCEBound); err != nil {
		t.Fatalf("sound certificate rejected: %v", err)
	}
	if cert == 0 {
		t.Fatal("certified WCE is 0: nothing to forge below it")
	}
	// The true worst case of this result is above 0, so claiming 0 is false.
	if err := checkWCE(c, res.Circuit, 0, opt.WCEBound); err == nil {
		t.Fatal("a forged CertifiedWCE of 0 went unnoticed")
	}
	if err := checkWCE(c, res.Circuit, opt.WCEBound+1, opt.WCEBound); err == nil {
		t.Fatal("a certified bound above the requested one went unnoticed")
	}
}

func TestCheckDigestCatchesChange(t *testing.T) {
	want := sha256.Sum256([]byte("aag 0 0 0 0 0\n"))
	rep := &report{}
	checkDigest(rep, "same", want, want)
	if rep.Failed != 0 {
		t.Fatalf("equal digests failed: %v", rep.Failures)
	}
	got := want
	got[31] ^= 1
	checkDigest(rep, "changed", want, got)
	if rep.Failed != 1 {
		t.Fatalf("changed digest: %d failures, want 1", rep.Failed)
	}
}

func TestCheckRequestsCatchesAlteredHit(t *testing.T) {
	key := alsdKey{circuit: 0, seed: 9}
	miss := alsdRecord{key: key, fresh: true, status: http.StatusOK,
		response: server.JobResponse{Cache: "miss"}, digest: sha256.Sum256([]byte("circuit"))}
	hit := miss
	hit.fresh, hit.response.Cache = false, "hit"

	rep := &report{}
	checkRequests(rep, []alsdRecord{miss, hit}, nil)
	if rep.Failed != 0 {
		t.Fatalf("faithful hit failed: %v", rep.Failures)
	}

	altered := hit
	altered.digest = sha256.Sum256([]byte("circuit with other bytes"))
	rejected := hit
	rejected.status, rejected.err = http.StatusServiceUnavailable, "queue full"
	wrongClass := hit
	wrongClass.response.Cache = "miss"
	rep = &report{}
	checkRequests(rep, []alsdRecord{miss, altered, rejected, wrongClass}, nil)
	if rep.Failed != 3 {
		t.Fatalf("%d failures, want 3 (altered bytes, non-200, hit served as miss): %v", rep.Failed, rep.Failures)
	}
}
