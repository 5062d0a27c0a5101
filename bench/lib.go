package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"dpals"
	"dpals/internal/obs"
)

// libRun runs a library workload: each pass calls dpals.ApproximateContext
// once per job and serialises the result with Circuit.WriteAIGER.
type libRun struct {
	cfg    config
	w      libWorkload
	inputs []input
	jobs   []libJob

	warm   []jobOut   // the warm-up pass: the reference every pass must match
	passes [][]jobOut // every pass after it, timed and traced
	kinds  []passKind
}

// libJob is one synthesis job: a circuit (an index into inputs) and the
// options it runs with. A circuit has one job per variant, each with its
// own Options.Seed.
type libJob struct {
	in  int
	opt dpals.Options
}

// jobOut is one synthesis job as recorded by a pass.
type jobOut struct {
	wall   time.Duration // ApproximateContext alone
	digest [sha256.Size]byte
	res    *dpals.Result // warm-up pass only
}

func (l *libRun) specs() []circuitSpec {
	if l.cfg.quick {
		return l.w.quick
	}
	return l.w.circuits
}

func (l *libRun) setup() (func(), error) {
	in, err := materialise(l.specs())
	if err != nil {
		return nil, err
	}
	l.inputs, l.jobs = in, nil
	for v := 0; v < l.w.variants; v++ {
		for i, c := range in {
			o := l.w.opt(c.circuit)
			o.Seed = l.cfg.seed*1000 + int64(len(l.jobs))
			if l.cfg.quick {
				o.MaxIters = 10
			}
			l.jobs = append(l.jobs, libJob{in: i, opt: o})
		}
	}
	return func() {}, nil
}

func (l *libRun) ops() int { return l.w.variants * len(l.specs()) }

func (l *libRun) threads() int { return l.jobs[0].opt.Threads }

func (l *libRun) root() string { return "pass" }

func (l *libRun) pass(kind passKind, tr *obs.Tracer) (time.Duration, error) {
	ctx := obs.WithTracer(context.Background(), tr)
	ps := tr.Start("pass")
	defer ps.End()
	outs := make([]jobOut, len(l.jobs))
	var total time.Duration
	for i, j := range l.jobs {
		in := l.inputs[j.in]
		js := ps.Child("job")
		js.SetStr("circuit", in.name)
		t0 := time.Now()
		res, err := dpals.ApproximateContext(ctx, in.circuit, j.opt)
		wall := time.Since(t0)
		js.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
		ws := ps.Child("aiger.write")
		var buf bytes.Buffer
		err = res.Circuit.WriteAIGER(&buf)
		ws.End()
		if err != nil {
			return 0, fmt.Errorf("%s: write result: %w", in.name, err)
		}
		outs[i] = jobOut{wall: wall, digest: sha256.Sum256(buf.Bytes())}
		if kind == warmup { // later passes are checked by digest alone
			outs[i].res = res
		}
		total += wall
	}
	if kind == warmup {
		l.warm = outs
	} else {
		l.passes = append(l.passes, outs)
		l.kinds = append(l.kinds, kind)
	}
	return total, nil
}

func (l *libRun) finish(rep *report, layers []Breakdown) {
	// Correctness. The oracle checks run once per job, on the warm-up
	// result; the digest check ties every later pass to that result, so a
	// job whose warm-up output fails fails in every pass.
	bad := make([]error, len(l.jobs))
	for i, j := range l.jobs {
		orig, res := l.inputs[j.in].circuit, l.warm[i].res
		bad[i] = checkSampled(orig, res.Circuit, j.opt, res.Error)
		if bad[i] == nil && j.opt.Metric == dpals.WCE {
			bad[i] = checkWCE(orig, res.Circuit, res.Stats.CertifiedWCE, j.opt.WCEBound)
		}
	}
	all := append([][]jobOut{l.warm}, l.passes...)
	for p, outs := range all {
		for i, j := range l.jobs {
			op := fmt.Sprintf("pass %d job %d (%s)", p, i, l.inputs[j.in].name)
			if bad[i] != nil {
				rep.fail(op, "%v", bad[i])
			}
			checkDigest(rep, op, l.warm[i].digest, outs[i].digest)
		}
	}

	// End-to-end metrics, from the untraced timed passes. A circuit's time
	// is the median over all its calls, every seed and every pass, so one
	// seed that happens to be slow does not move it.
	var medians, areas []float64
	n := 0
	for c, in := range l.inputs {
		var walls []float64
		for p, outs := range l.passes {
			for i, j := range l.jobs {
				if l.kinds[p] == timed && j.in == c {
					walls = append(walls, outs[i].wall.Seconds())
				}
			}
		}
		m := median(walls)
		n = len(walls)
		medians = append(medians, m)
		var digests []string
		var ca []float64
		for i, j := range l.jobs {
			if j.in == c {
				ca = append(ca, l.warm[i].res.AreaRatio)
				digests = append(digests, hex.EncodeToString(l.warm[i].digest[:8]))
			}
		}
		areas = append(areas, ca...)
		rep.Circuits = append(rep.Circuits, circuitRow{Name: in.name, MedianS: m, N: n, Seconds: walls,
			AreaRatio: gmean(ca), Digests: digests})
		rep.set("job_s_p50."+in.name, m, n)
	}
	rep.set("synth_s_gmean", gmean(medians), n*len(medians))
	rep.set("area_ratio_gmean", gmean(areas), len(areas))
	// A request here is one ApproximateContext call. Circuits differ by
	// orders of magnitude, so the percentiles are taken over the circuits'
	// times: p50 is the middle circuit, and p99, which a few dozen calls
	// cannot resolve, is reported as the slowest circuit.
	ms := make([]float64, len(medians))
	for i, m := range medians {
		ms[i] = m * 1e3
	}
	rep.set("req_ms_p50", median(ms), n*len(ms))
	rep.set("req_ms_p99", percentile(ms, 1), n*len(ms))
	if !rep.Trace {
		return
	}

	// Per-layer counters from the engine's own Stats: deterministic, so the
	// warm-up pass has the same values as every traced pass.
	var s struct {
		evalWork, memo, rowsRe, rowsUse, cutUpd, calls, cex, rollbacks int64
		applied, p1, p1warm, p2, gets, reuses                          int64
	}
	for _, j := range l.warm {
		st := j.res.Stats
		s.evalWork += st.EvalWork
		s.memo += st.EvalMemoHits
		s.rowsRe += st.CPMRowsRecomputed
		s.rowsUse += st.CPMRowsReused
		s.cutUpd += int64(st.CutUpdates)
		s.calls += int64(st.CertCalls)
		s.cex += int64(st.CertCexHits)
		s.rollbacks += int64(st.CertRollbacks)
		s.applied += int64(st.Applied)
		s.p1 += int64(st.Comprehensive)
		s.p1warm += int64(st.WarmComprehensive)
		s.p2 += int64(st.Incremental)
		s.gets += st.Pool.Gets
		s.reuses += st.Pool.Reuses
	}
	rep.set("eval.work_mwords", float64(s.evalWork)/1e6, 0)
	rep.set("eval.memo_hits", float64(s.memo), 0)
	rep.set("cpm.rows_recomputed", float64(s.rowsRe), 0)
	rep.set("cpm.reuse_rate", ratio(s.rowsUse, s.rowsUse+s.rowsRe), 0)
	rep.set("cut.updates", float64(s.cutUpd), 0)
	rep.set("equiv.cert_calls", float64(s.calls), 0)
	rep.set("equiv.cex_hits", float64(s.cex), 0)
	rep.set("equiv.cert_rollbacks", float64(s.rollbacks), 0)
	rep.set("core.applied", float64(s.applied), 0)
	rep.set("core.p1_passes", float64(s.p1), 0)
	rep.set("core.p1_warm_passes", float64(s.p1warm), 0)
	rep.set("core.p2_iters", float64(s.p2), 0)
	rep.set("bitvec.pool_reuse_rate", ratio(s.reuses, s.gets), 0)

	var writes []float64
	for _, b := range layers {
		if w := b.Layers["pass/aiger.write"]; w != nil && w.Count > 0 {
			writes = append(writes, w.SelfMS/float64(w.Count))
		}
	}
	rep.set("aiger.write_ms", median(writes), len(writes))
	zeroMissing(rep)
}

// checkDigest fails op when a pass's output differs from the reference.
func checkDigest(rep *report, op string, want, got [sha256.Size]byte) {
	if got != want {
		rep.fail(op, "output digest %x differs from the warm-up pass's %x", got[:8], want[:8])
	}
}

// zeroMissing reports every per-layer row the workload has no data for as
// 0: the alsd rows on a library workload, the other workloads' circuits.
func zeroMissing(rep *report) {
	for _, d := range perLayer() {
		if _, ok := rep.Metrics[d.name]; !ok {
			rep.set(d.name, 0, 0)
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
