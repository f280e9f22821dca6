package main

// layerNames are the per-layer metrics a traced run reports, with the
// unit and direction BENCHMARK.json declares for each (a test keeps the
// two equal). Every traced run reports all of them; a layer the
// workload does not exercise reads 0, which is itself the finding
// (serve-http never calls Age, dse-search never runs a replica).
var layerNames = []struct{ name, unit, better string }{
	// serve-http: the HTTP hop split into its parts.
	{"serve.http_self_us", "us", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p90", "ms", "lower"},
	{"serve.batch_mean_open", "count", "lower"},
	{"serve.batch_mean_backlog", "count", "higher"},
	{"bnn.forward_ms_per_batch_p50", "ms", "lower"},
	{"bnn.forward_us_per_sample", "us", "lower"},
	{"bnn.busy_frac", "ratio", "lower"},
	{"serve.reply_ms_p50", "ms", "lower"},
	{"serve.hop_residual_ms", "ms", "lower"},
	{"sim.pricer_sim_inf_per_s", "1/s", "higher"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	// hw-lifetime: the analog read path and its write paths.
	{"crossbar.program_ms", "ms", "lower"},
	{"robust.forward_ms_per_sample", "ms", "lower"},
	{"crossbar.age_ms_p50", "ms", "lower"},
	{"crossbar.age_calls", "count", "higher"},
	{"serve.canary_ms_p50", "ms", "lower"},
	{"serve.canary_runs", "count", "higher"},
	{"crossbar.recal_ms_p50", "ms", "lower"},
	{"serve.recalibrations", "count", "higher"},
	// dse-search: set-up, lowering, annealing and the engine evaluator.
	{"bnn.zoo_build_s", "s", "lower"},
	{"eval.fig78_ms", "ms", "lower"},
	{"compiler.lower_ms_p50", "ms", "lower"},
	{"compiler.search_self_ms_p50", "ms", "lower"},
	{"sim.score_us_p50", "us", "lower"},
	{"sim.score_calls", "count", "lower"},
	{"sim.cached_probes", "count", "lower"},
	{"sim.cached_hits", "count", "higher"},
	{"sim.eval_computes", "count", "lower"},
	{"sim.pool_reuse_rate", "ratio", "higher"},
	{"compiler.steps", "count", "lower"},
}
