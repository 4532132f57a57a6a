package main

// metricDecl declares one metric the benchmark emits. BENCHMARK.json
// lists the same names, units and directions; bench_test.go keeps the
// two in step.
type metricDecl struct {
	name   string
	unit   string
	better string
	// bound is the share of the baseline median by which the metric may
	// worsen before --compare calls it worse; 0 means --compare does not
	// judge it. Every end-to-end metric has one, and so have the guarded
	// per-layer metrics: the ones the issue listed as end-to-end, which
	// only one workload measures. BENCHMARK.json has no bound for a
	// per-layer metric, so theirs is held here and by --compare alone.
	bound float64
	// floor is an absolute difference, in the metric's unit, below which
	// two medians count as the same whatever the share: set-up takes tens
	// of milliseconds, where a quarter is three milliseconds of jitter.
	floor float64
	// exact marks values that are a pure function of the inputs (counts,
	// F1): two runs of one commit on one seed must report them
	// identically.
	exact bool
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. What "a pass" is per workload is in README.md.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.25},
	{name: "pass_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn_s", unit: "s", better: "lower", bound: 0.25},
	{name: "predict_cold_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "f1_mean", unit: "ratio", better: "higher", bound: 0.05, exact: true},
}

// perLayer is reported by the traced run. A layer a workload bypasses
// reports 0 there. The ones with a bound are the guarded metrics: an
// untraced run measures them too (from its untraced passes) and --record
// keeps them, so --compare holds them to the bound like the end-to-end
// ones.
var perLayer = []metricDecl{
	{name: "datagen.generate_s", unit: "s", better: "lower"},
	{name: "db.build_indexes_s", unit: "s", better: "lower"},
	{name: "db.tuples", unit: "count", better: "higher", exact: true},
	{name: "db.lookup_per_s", unit: "1/s", better: "higher"},
	{name: "db.select_in_per_s", unit: "1/s", better: "higher"},
	{name: "db.frequency_per_s", unit: "1/s", better: "higher"},
	{name: "db.insert_batch_tuples_per_s", unit: "1/s", better: "higher"},
	{name: "db.reads_during_ingest_per_s", unit: "1/s", better: "higher"},

	{name: "ind.discover_s", unit: "s", better: "lower"},
	{name: "ind.candidates", unit: "count", better: "lower", exact: true},
	{name: "ind.validated", unit: "count", better: "lower", exact: true},
	{name: "ind.refresh_s", unit: "s", better: "lower"},

	{name: "bias.induce_s", unit: "s", better: "lower"},
	{name: "bias.induced_defs", unit: "count", better: "lower", exact: true},
	{name: "bias.manual_defs", unit: "count", better: "lower", exact: true},
	{name: "bias.defs_ratio", unit: "ratio", better: "lower", exact: true},

	{name: "bottom.construct_naive_s", unit: "s", better: "lower"},
	{name: "bottom.construct_random_s", unit: "s", better: "lower"},
	{name: "bottom.construct_stratified_s", unit: "s", better: "lower"},
	{name: "bottom.literals_mean", unit: "count", better: "lower", exact: true},
	{name: "bottom.constructions", unit: "count", better: "lower", exact: true},
	{name: "bottom.ground_constructions", unit: "count", better: "lower", exact: true},

	{name: "subsume.compile_ground_s", unit: "s", better: "lower"},
	{name: "subsume.check_per_s", unit: "1/s", better: "higher"},
	{name: "subsume.tests", unit: "count", better: "lower"},
	{name: "subsume.nodes", unit: "count", better: "lower"},
	{name: "subsume.nodes_per_test", unit: "count", better: "lower"},
	{name: "subsume.budget_exhausted", unit: "count", better: "lower"},

	{name: "learn.run_s", unit: "s", better: "lower"},
	{name: "learn.coverage_count_s", unit: "s", better: "lower"},
	{name: "learn.bottom_construct_s", unit: "s", better: "lower"},
	{name: "learn.search_self_s", unit: "s", better: "lower"},
	{name: "learn.attribution_gap_pct", unit: "%", better: "lower"},
	{name: "learn.armg_probe_s", unit: "s", better: "lower"},
	{name: "learn.rounds", unit: "count", better: "lower", exact: true},
	{name: "learn.candidates", unit: "count", better: "lower", exact: true},
	{name: "learn.clauses", unit: "count", better: "lower", exact: true},
	{name: "learn.coverage_tests", unit: "count", better: "lower"},
	{name: "learn.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "learn.bc_cache_hits", unit: "count", better: "higher"},
	{name: "learn.manual_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn.induced_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn.induced_over_manual", unit: "ratio", better: "lower", bound: 0.25},
	{name: "learn.random_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn.stratified_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn.sharded_s", unit: "s", better: "lower", bound: 0.25},
	{name: "learn.local_pure_s", unit: "s", better: "lower"},
	{name: "learn.initial_s", unit: "s", better: "lower"},
	{name: "learn.relearn_s", unit: "s", better: "lower"},
	{name: "learn.carried_hits", unit: "count", better: "higher", exact: true},
	{name: "learn.relearn_over_repair", unit: "ratio", better: "higher"},

	{name: "eval.heldout_s", unit: "s", better: "lower"},
	{name: "eval.examples_scored", unit: "count", better: "higher", exact: true},
	{name: "query.exact_eval_s", unit: "s", better: "lower"},
	{name: "query.disagreements", unit: "count", better: "lower", exact: true},

	{name: "shard.fleet_start_s", unit: "s", better: "lower"},
	{name: "shard.rpc_sent", unit: "count", better: "lower"},
	{name: "shard.wire_bytes_sent", unit: "bytes", better: "lower"},
	{name: "shard.wire_bytes_recv", unit: "bytes", better: "lower"},
	{name: "shard.memo_hits", unit: "count", better: "higher"},
	{name: "shard.dict_registers", unit: "count", better: "lower"},
	{name: "shard.worker_requests", unit: "count", better: "lower"},
	{name: "shard.worker_busy_s", unit: "s", better: "lower"},
	{name: "shard.wait_s", unit: "s", better: "lower"},
	{name: "shard.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "shard.rpc_retried", unit: "count", better: "lower"},
	{name: "shard.fallback_local", unit: "count", better: "lower"},

	{name: "ingest.apply_s", unit: "s", better: "lower"},
	{name: "ingest.batches", unit: "count", better: "lower", exact: true},
	{name: "ingest.tuples_applied", unit: "count", better: "higher", exact: true},
	{name: "ingest.stream_commits", unit: "count", better: "lower", exact: true},
	{name: "ingest.stream_tuples_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "ingest.stream_with_reader_tuples_per_s", unit: "1/s", better: "higher"},

	{name: "autobias.repair_s", unit: "s", better: "lower", bound: 0.25},
	{name: "autobias.repair_dirty_examples", unit: "count", better: "lower", exact: true},
	{name: "autobias.repair_unchanged", unit: "count", better: "higher", exact: true},
	{name: "autobias.repair_full_relearns", unit: "count", better: "lower", exact: true},

	{name: "model.save_s", unit: "s", better: "lower"},
	{name: "model.load_s", unit: "s", better: "lower"},
	{name: "model.artifact_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "serve.bind_s", unit: "s", better: "lower"},
	{name: "serve.swap_s", unit: "s", better: "lower"},
	{name: "serve.commit_to_serving_s", unit: "s", better: "lower", bound: 0.25},
	{name: "serve.cold_pass_s", unit: "s", better: "lower"},
	{name: "serve.cache_misses", unit: "count", better: "lower"},
	{name: "serve.cache_admits", unit: "count", better: "higher"},
	{name: "serve.cache_rejects", unit: "count", better: "lower"},
	{name: "serve.memo_hits", unit: "count", better: "higher"},
	{name: "serve.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.predict_warm_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "serve.churn_predict_per_s", unit: "1/s", better: "higher"},
	{name: "serve.bc_evictions", unit: "count", better: "lower"},

	{name: "proc.peak_rss_mb", unit: "mb", better: "lower"},
	{name: "proc.total_alloc_mb", unit: "mb", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "metrics.trace_overhead_pct", unit: "%", better: "lower"},
}

// workloadNames lists the workloads in the order -compare prints them;
// BENCHMARK.json says why each exists.
var workloadNames = []string{"table5", "table6", "sharded-learn", "live-loop"}
