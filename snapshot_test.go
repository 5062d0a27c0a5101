package dpals_test

// The counter snapshot: CI's deterministic regression gate. DP-SA tunes M
// from deterministic work estimates (§III-D), so the work, row, apply and
// certification counters fix a run's whole trajectory on any host and at
// any thread count. TestCounterSnapshot runs a fixed table of jobs and
// requires every recorded field to match testdata/snapshot.json exactly.
// A change that moves a counter on purpose regenerates the file with
//
//	go test -run TestCounterSnapshot -update .
//
// so the change shows up as a reviewable JSON diff. Wall-clock claims
// belong to the bench/ module's paired runs, not to this test.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"dpals"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot.json from this run")

const snapshotPath = "testdata/snapshot.json"

// snapshotJob is one pinned synthesis run.
type snapshotJob struct {
	name    string
	circuit *dpals.Circuit
	opt     dpals.Options // Threads is set by the test
	twin    bool          // also run at Threads 2; the record must not change
	long    bool          // skipped under -short; the warm-start floors apply
	sat     bool          // a WCE job that must certify by SAT
}

// snapshotJobs is the table: the -quick shapes of bench/'s three library
// workloads at seeds 1 and 2, one WCE run that certifies by SAT, and one
// multi-round dual-phase run on a 4730-AND circuit whose warm passes the
// warm-start floors check.
func snapshotJobs() []snapshotJob {
	wceOpt := func(*dpals.Circuit) dpals.Options {
		return dpals.Options{Flow: dpals.DP, Metric: dpals.WCE, WCEBound: 32, UseConstLACs: true,
			Patterns: 4096, CertConflictLimit: 200000, MaxIters: 50}
	}
	type shape struct {
		name    string
		circuit *dpals.Circuit
	}
	families := []struct {
		workload string
		shapes   []shape
		opt      func(c *dpals.Circuit) dpals.Options
		twin     bool
	}{
		{"large-const", []shape{
			{"vecmul2x4", dpals.NewVecMul(2, 4)},
			{"sqrt12", dpals.NewSqrt(12)},
			{"butterfly4", dpals.NewButterfly(4)},
		}, func(c *dpals.Circuit) dpals.Options {
			r := dpals.ReferenceError(c)
			return dpals.Options{Flow: dpals.DPSA, Metric: dpals.MSE, Threshold: r * r,
				UseConstLACs: true, Patterns: 1024, MaxIters: 120}
		}, true},
		{"small-sasimi", []shape{
			{"alu2", dpals.NewALU(2)},
			{"mults3x3", dpals.NewMultiplier(3, 3, true)},
		}, func(c *dpals.Circuit) dpals.Options {
			return dpals.Options{Flow: dpals.DP, Metric: dpals.MED, Threshold: dpals.ReferenceError(c),
				UseSASIMILACs: true, Patterns: 1024}
		}, false},
		// Both circuits' input spaces (2^12 and 2^6) fit the 4096
		// patterns, so these runs enumerate and certify without SAT.
		{"wce-cert", []shape{
			{"adder6", dpals.NewAdder(6)},
			{"multu3x3", dpals.NewMultiplier(3, 3, false)},
		}, wceOpt, false},
	}
	var jobs []snapshotJob
	for _, f := range families {
		for _, s := range f.shapes {
			for seed := int64(1); seed <= 2; seed++ {
				o := f.opt(s.circuit)
				o.Seed = seed
				jobs = append(jobs, snapshotJob{name: fmt.Sprintf("%s/%s/seed%d", f.workload, s.name, seed),
					circuit: s.circuit, opt: o, twin: f.twin})
			}
		}
	}
	// The 2^32 inputs of a 16-bit adder are beyond
	// core.CertifiesByEnumeration: this run samples and certifies by SAT,
	// so the snapshot pins the SAT counters.
	adder16 := dpals.NewAdder(16)
	sat := wceOpt(adder16)
	sat.Seed = 1
	jobs = append(jobs, snapshotJob{name: "wce-sat/adder16/seed1", circuit: adder16, opt: sat, sat: true})
	// A small fixed round shape (one phase-1 apply plus N=2 phase-2 applies
	// per round), so MaxIters 24 spans eight rounds and the cross-round
	// warm start fires seven times.
	c := dpals.NewVecMul(4, 10)
	r := dpals.ReferenceError(c)
	return append(jobs, snapshotJob{name: "dual-phase/vecmul4x10/seed1", circuit: c,
		opt: dpals.Options{Flow: dpals.DP, Metric: dpals.MSE, Threshold: r * r, UseConstLACs: true,
			Patterns: 1024, Seed: 1, MaxIters: 24, M: 18, N: 2},
		twin: true, long: true})
}

// snapshotRecord is what the snapshot pins per job. Every field is a
// deterministic function of the circuit and the options.
type snapshotRecord struct {
	AIGERSHA256 string  `json:"aiger_sha256"`
	Error       float64 `json:"error"`
	AreaRatio   float64 `json:"area_ratio"`

	Applied           int              `json:"applied"`
	Comprehensive     int              `json:"comprehensive"`
	WarmComprehensive int              `json:"warm_comprehensive"`
	Incremental       int              `json:"incremental"`
	Rollbacks         int              `json:"rollbacks"`
	StopReason        dpals.StopReason `json:"stop_reason"`
	MTrace            []int            `json:"m_trace"`

	CutWork              int64 `json:"cut_work"`
	CPMWork              int64 `json:"cpm_work"`
	EvalWork             int64 `json:"eval_work"`
	SkippedWork          int64 `json:"skipped_work"`
	CPMRowsReused        int64 `json:"cpm_rows_reused"`
	CPMRowsRecomputed    int64 `json:"cpm_rows_recomputed"`
	Phase1RowsReused     int64 `json:"phase1_rows_reused"`
	Phase1RowsRecomputed int64 `json:"phase1_rows_recomputed"`
	CutUpdates           int   `json:"cut_updates"`

	PoolGets      int64 `json:"pool_gets"`
	PoolReuses    int64 `json:"pool_reuses"`
	PoolHighWater int64 `json:"pool_high_water"`

	CertCalls    int    `json:"cert_calls"`
	CertCexHits  int    `json:"cert_cex_hits"`
	CertifiedWCE uint64 `json:"certified_wce"`
}

func runSnapshotJob(t *testing.T, j snapshotJob, threads int) snapshotRecord {
	t.Helper()
	o := j.opt
	o.Threads = threads
	res, err := dpals.Approximate(j.circuit, o)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	if math.IsNaN(res.Error+res.AreaRatio) || math.IsInf(res.Error+res.AreaRatio, 0) {
		t.Fatalf("%s: error %v, area ratio %v", j.name, res.Error, res.AreaRatio)
	}
	var buf bytes.Buffer
	if err := res.Circuit.WriteAIGER(&buf); err != nil {
		t.Fatalf("%s: write AIGER: %v", j.name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	st := res.Stats
	return snapshotRecord{
		AIGERSHA256: hex.EncodeToString(sum[:]), Error: res.Error, AreaRatio: res.AreaRatio,
		Applied: st.Applied, Comprehensive: st.Comprehensive, WarmComprehensive: st.WarmComprehensive,
		Incremental: st.Incremental, Rollbacks: st.Rollbacks, StopReason: st.StopReason, MTrace: st.MTrace,
		CutWork: st.CutWork, CPMWork: st.CPMWork, EvalWork: st.EvalWork, SkippedWork: st.SkippedWork(),
		CPMRowsReused: st.CPMRowsReused, CPMRowsRecomputed: st.CPMRowsRecomputed,
		Phase1RowsReused: st.Phase1RowsReused, Phase1RowsRecomputed: st.Phase1RowsRecomputed,
		CutUpdates: st.CutUpdates,
		PoolGets:   st.Pool.Gets, PoolReuses: st.Pool.Reuses, PoolHighWater: st.Pool.HighWater,
		CertCalls: st.CertCalls, CertCexHits: st.CertCexHits, CertifiedWCE: st.CertifiedWCE,
	}
}

// warmFloors checks that a multi-round dual-phase run actually reuses
// state across rounds: warm passes happen, reuse phase-1 CPM rows, serve
// at least 40% of the charged analysis work from the previous round, and
// the CPM arena recycles rows. These hold whatever the snapshot says, so
// an -update cannot record them away.
func warmFloors(r snapshotRecord) []string {
	var bad []string
	if r.WarmComprehensive == 0 {
		bad = append(bad, "no warm comprehensive pass")
	}
	if r.Phase1RowsReused == 0 {
		bad = append(bad, "warm passes reused no phase-1 CPM rows")
	}
	if charged := r.CutWork + r.CPMWork + r.EvalWork; charged == 0 || float64(r.SkippedWork) < 0.40*float64(charged) {
		bad = append(bad, fmt.Sprintf("warm passes skipped %d of %d charged work, below the 40%% floor", r.SkippedWork, charged))
	}
	if r.PoolReuses == 0 {
		bad = append(bad, "CPM arena never reused a row")
	}
	return bad
}

func TestCounterSnapshot(t *testing.T) {
	jobs := snapshotJobs()
	if *update && testing.Short() {
		t.Fatal("-update needs the whole table; drop -short")
	}
	var names []string
	got := map[string]snapshotRecord{}
	for _, j := range jobs {
		names = append(names, j.name)
		if j.long && testing.Short() {
			continue
		}
		rec := runSnapshotJob(t, j, 1)
		got[j.name] = rec
		if j.twin {
			for _, d := range fieldDiff(j.name+" at Threads 2", recordFields(rec), runSnapshotJob(t, j, 2)) {
				t.Error(d)
			}
		}
		if j.long {
			for _, d := range warmFloors(rec) {
				t.Errorf("%s: %s", j.name, d)
			}
		}
		if j.sat && rec.CertCalls == 0 {
			t.Errorf("%s: no SAT call; the job no longer pins the SAT path", j.name)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(snapshotPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestCounterSnapshot -update .)", err)
	}
	diffs, err := snapshotDiff(data, names, got)
	if err != nil {
		t.Fatalf("%s: %v", snapshotPath, err)
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Log("if the change is intended, regenerate with: go test -run TestCounterSnapshot -update .")
	}
}

// snapshotDiff compares a snapshot file with this run's records. It
// returns one line per job missing from or extra in the file and one per
// field whose value differs. Jobs in names but not in got (skipped under
// -short) must still be in the file; only their fields go unchecked. A
// file that does not parse is an error.
func snapshotDiff(data []byte, names []string, got map[string]snapshotRecord) ([]string, error) {
	var want map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, err
	}
	var diffs []string
	for _, name := range names {
		fields, ok := want[name]
		if !ok {
			diffs = append(diffs, name+": job missing from the snapshot")
			continue
		}
		if rec, ran := got[name]; ran {
			diffs = append(diffs, fieldDiff(name, fields, rec)...)
		}
	}
	var extra []string
	for name := range want {
		if !slices.Contains(names, name) {
			extra = append(extra, name+": job in the snapshot but not in the table")
		}
	}
	slices.Sort(extra)
	return append(diffs, extra...), nil
}

// fieldDiff returns one line per field of rec whose JSON value differs from
// want's, including fields only one side has.
func fieldDiff(job string, want map[string]json.RawMessage, rec snapshotRecord) []string {
	got := recordFields(rec)
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var diffs []string
	for _, k := range keys {
		w, g := compactJSON(want[k]), compactJSON(got[k])
		if w != g {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %s, want %s", job, k, g, w))
		}
	}
	return diffs
}

// recordFields maps each JSON field of rec to its encoded value. The
// errors are dropped because a struct of strings, finite numbers (checked
// by runSnapshotJob) and an int slice always encodes, and its encoding
// always decodes.
func recordFields(rec snapshotRecord) map[string]json.RawMessage {
	data, _ := json.Marshal(rec)
	var fields map[string]json.RawMessage
	_ = json.Unmarshal(data, &fields)
	return fields
}

// compactJSON renders a JSON value without whitespace; "<missing>" when
// the field is absent.
func compactJSON(v json.RawMessage) string {
	if v == nil {
		return "<missing>"
	}
	var b bytes.Buffer
	if err := json.Compact(&b, v); err != nil {
		return string(v)
	}
	return b.String()
}

// TestCounterSnapshotGate checks that the gate cannot pass vacuously: an
// unreadable file, a missing job and an extra job each fail.
func TestCounterSnapshotGate(t *testing.T) {
	rec := snapshotRecord{AIGERSHA256: "ab", Applied: 3, MTrace: []int{30, 45}}
	one := map[string]snapshotRecord{"a": rec}
	good, _ := json.MarshalIndent(one, "", "  ")
	if diffs, err := snapshotDiff(good, []string{"a"}, one); err != nil || len(diffs) > 0 {
		t.Fatalf("identical snapshot reported %v, %v", diffs, err)
	}
	for _, data := range []string{"", "not json", `[1,2]`} {
		if _, err := snapshotDiff([]byte(data), []string{"a"}, one); err == nil {
			t.Errorf("unreadable snapshot %q accepted", data)
		}
	}
	cases := []struct {
		name, data string
		names      []string
		want       string
	}{
		{"missing job", `{}`, []string{"a"}, "a: job missing"},
		{"missing skipped job", `{}`, []string{"a", "b"}, "b: job missing"},
		{"null file", `null`, []string{"a"}, "a: job missing"},
		{"changed field", strings.Replace(string(good), `"applied": 3`, `"applied": 4`, 1), []string{"a"}, "a: applied = 3, want 4"},
		{"missing field", strings.Replace(string(good), `"applied": 3,`, ``, 1), []string{"a"}, "a: applied = 3, want <missing>"},
		{"extra field", strings.Replace(string(good), `"applied": 3,`, `"applied": 3, "x": 1,`, 1), []string{"a"}, "a: x = <missing>, want 1"},
		{"changed trace", strings.Replace(string(good), "45", "46", 1), []string{"a"}, "a: m_trace = [30,45], want [30,46]"},
	}
	for _, c := range cases {
		diffs, err := snapshotDiff([]byte(c.data), c.names, one)
		if err != nil || !slices.ContainsFunc(diffs, func(d string) bool { return strings.HasPrefix(d, c.want) }) {
			t.Errorf("%s: got %q, %v; want a line starting %q", c.name, diffs, err, c.want)
		}
	}
	two, _ := json.Marshal(map[string]snapshotRecord{"a": rec, "z": rec})
	if diffs, _ := snapshotDiff(two, []string{"a"}, one); !slices.Equal(diffs, []string{"z: job in the snapshot but not in the table"}) {
		t.Errorf("extra job: got %q", diffs)
	}
}
