package main

// metricDef is one metric the benchmark reports: its name and unit. The
// direction and bound of each live in BENCHMARK.json; bench_test.go checks
// that the two lists agree.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library or of alsd sees. Every
// workload reports all of them (see README.md for what each means on the
// library workloads and on alsd-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"synth_s_gmean", "s"},
	{"area_ratio_gmean", "ratio"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"req_per_s", "1/s"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
}

// perLayer are the traced run's metrics: self times per pass from the span
// tree, the engine's own counters, and the alsd request breakdown.
func perLayer() []metricDef {
	defs := []metricDef{
		{"eval.p1_ms", "ms"}, {"eval.p2_ms", "ms"}, {"eval.work_mwords", "Mword"}, {"eval.memo_hits", "count"},
		{"cpm.p1_cold_ms", "ms"}, {"cpm.p1_warm_ms", "ms"}, {"cpm.p2_ms", "ms"},
		{"cpm.rows_recomputed", "count"}, {"cpm.reuse_rate", "ratio"},
		{"cut.build_ms", "ms"}, {"cut.update_ms", "ms"}, {"cut.updates", "count"},
		{"equiv.cert_ms", "ms"}, {"equiv.cert_calls", "count"}, {"equiv.cex_hits", "count"}, {"equiv.cert_rollbacks", "count"},
		{"par.busy_frac", "ratio"},
		{"sim.init_ms", "ms"}, {"sim.resim_ms", "ms"},
		{"core.apply_ms", "ms"}, {"core.rollback_ms", "ms"}, {"core.sweep_ms", "ms"}, {"core.unattributed_ms", "ms"},
		{"core.applied", "count"}, {"core.p1_passes", "count"}, {"core.p1_warm_passes", "count"}, {"core.p2_iters", "count"},
		{"dpals.wrap_ms", "ms"}, {"bitvec.pool_reuse_rate", "ratio"},
		{"rt.alloc_mb_per_job", "MB"}, {"rt.mallocs_per_job", "count"}, {"rt.gc_per_job", "count"},
		{"aiger.write_ms", "ms"},
		{"server.hit_ms_p50", "ms"}, {"server.hit_ms_p99", "ms"}, {"server.http_ms_p50", "ms"},
		{"server.queue_ms_p50", "ms"}, {"server.queue_ms_p99", "ms"}, {"server.run_ms_p50", "ms"},
		{"server.miss_ms_p50", "ms"}, {"server.miss_ms_p99", "ms"}, {"server.hit_rate", "ratio"},
		{"trace.overhead_frac", "ratio"}, {"trace.unattributed_frac", "ratio"},
	}
	for _, c := range allCircuitNames() {
		defs = append(defs, metricDef{"job_s_p50." + c, "s"})
	}
	return defs
}

// unitOf returns the unit of a metric of either list.
func unitOf(name string) string {
	for _, d := range append(endToEnd, perLayer()...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
