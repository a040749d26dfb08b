package main

// metricDecl declares one metric; BENCHMARK.json lists the same names,
// units and directions, which the smoke test checks.
type metricDecl struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, for every workload.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload never calls reads 0.
var perLayer = []metricDecl{
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.coverage_frac", "frac", "higher"},
	{"trace.spans", "count", "lower"},

	{"workload.build_s", "s", "lower"},
	{"workload.build_alloc_mb", "MB", "lower"},
	{"workload.builds", "count", "lower"},

	{"logging.generate_s", "s", "lower"},
	{"logging.generate_alloc_mb", "MB", "lower"},
	{"logging.uops_emitted", "count", "lower"},

	{"core.newsystem_s", "s", "lower"},
	{"core.newsystem_alloc_mb", "MB", "lower"},
	{"core.step_s", "s", "lower"},
	{"core.host_ns_per_sim_cycle", "ns", "lower"},
	{"core.sim_cycles", "count", "lower"},
	{"core.sim_uops", "count", "lower"},
	{"cpu.frontend_stall_cycles", "count", "lower"},
	{"cpu.llt_miss_pct", "%", "lower"},
	{"memctrl.wpq_full_stall_cycles", "count", "lower"},
	{"memctrl.lpq_dropped", "count", "higher"},
	{"nvm.writes_data", "count", "lower"},
	{"nvm.writes_log", "count", "lower"},

	{"engine.queue_wait_p50_ms", "ms", "lower"},
	{"engine.queue_wait_p99_ms", "ms", "lower"},
	{"engine.busy_frac", "frac", "higher"},
	{"engine.tail_s", "s", "lower"},
	{"engine.memo_hits", "count", "higher"},
	{"engine.store_hits", "count", "higher"},
	{"engine.simulated", "count", "lower"},

	{"crashcampaign.tuple_p50_s", "s", "lower"},
	{"crashcampaign.tuple_max_s", "s", "lower"},
	{"crashcampaign.image_s", "s", "lower"},
	{"crashcampaign.redundant_frac", "frac", "lower"},
	{"crashcampaign.verified", "count", "higher"},
	{"crashcampaign.detected", "count", "higher"},
	{"crashcampaign.vulnerable", "count", "lower"},
	{"crashcampaign.failed", "count", "lower"},
	{"recovery.recover_s", "s", "lower"},
	{"recovery.verify_s", "s", "lower"},

	{"litmus.case_p50_ms", "ms", "lower"},
	{"litmus.case_p99_ms", "ms", "lower"},
	{"litmus.compile_s", "s", "lower"},
	{"litmus.persist_states", "count", "lower"},
	{"litmus.injections", "count", "lower"},
	{"litmus.divergences", "count", "lower"},

	{"resultstore.load_p50_ms", "ms", "lower"},
	{"resultstore.load_p99_ms", "ms", "lower"},
	{"resultstore.put_p50_ms", "ms", "lower"},
	{"resultstore.put_p99_ms", "ms", "lower"},
	{"resultstore.fsync_s", "s", "lower"},
	{"resultstore.hits", "count", "higher"},
	{"resultstore.misses", "count", "lower"},

	{"ledger.fs_s", "s", "lower"},
	{"ledger.leaves", "count", "lower"},
	{"ledger.records", "count", "lower"},
	{"ledger.batch_mean", "count", "higher"},
	{"ledger.audit_s", "s", "lower"},

	{"serve.latency_p50_ms", "ms", "lower"},
	{"serve.latency_p99_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.memo_hit_p50_ms", "ms", "lower"},
	{"serve.store_hit_p50_ms", "ms", "lower"},
	{"serve.merged", "count", "higher"},
	{"serve.rejected", "count", "lower"},
}

// workloads are the benchmark's workloads by name; BENCHMARK.json says
// why each exists.
var workloads = []struct {
	name string
	w    workloadRunner
}{
	{"fig6-suite", fig6Suite()},
	{"footprint-build", footprintBuild()},
	{"crash-sweep", crashSweep()},
	{"litmus-sweep", litmusSweep()},
	{"serve-mixed", serveMixed()},
}
