package main

// metricDef declares one reported metric. BENCHMARK.json lists the
// same names, units and directions (a self-test keeps the two equal).
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric and workload a per-layer metric
	// should move: the rationale later issues cite.
	moves string
}

// endToEnd are measured over HTTP with tracing off, on every workload.
var endToEnd = []metricDef{
	// Bounds are set from ten-seed runs on a shared 2-CPU machine whose
	// speed shifted by about 20% between phases of its other load: the
	// spread (IQR over median) of ten runs reached 0.19, so the timing
	// metrics take the widest bound allowed.
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_query", unit: "ms", better: "lower", bound: 0.25},
	// Summed over the server processes, sampled every 100 ms during
	// the windows: the median, because the peak (VmHWM) hangs on when
	// the garbage collector happens to run during a search's
	// allocation burst and read 26–37 MB on one travel-cold seed.
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.1},
	// The complement of the failed share (errors + sheds + wrong
	// answers over attempts): a metric that is never 0.
	{name: "answered_share", unit: "share", better: "higher", bound: 0.02},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer come from the traced in-process replay and from /metrics
// deltas of the untraced run; they are for diagnosis and carry no
// bound.
var perLayer = []metricDef{
	{name: "cq.parse_bind_us", unit: "us", better: "lower", moves: "query_p50_ms on zipf-hot"},
	{name: "cq.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},

	{name: "opt.search_ms", unit: "ms", better: "lower", moves: "query_p50_ms, throughput_qps and cpu_ms_per_query on travel-cold"},
	{name: "opt.hit_ms", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot and travel-fleet"},
	{name: "opt.phase1_ms", unit: "ms", better: "lower", moves: "query_p50_ms on travel-cold"},
	{name: "opt.phase2_ms", unit: "ms", better: "lower", moves: "query_p50_ms on travel-cold"},
	{name: "opt.phase3_ms", unit: "ms", better: "lower", moves: "query_p50_ms on travel-cold (phase 3 dominates)"},
	{name: "opt.states_visited", unit: "count", better: "lower", moves: "none: a speed-only change leaves it unchanged"},
	{name: "opt.fetch_vectors", unit: "count", better: "lower", moves: "none: a speed-only change leaves it unchanged"},
	{name: "opt.allocs_per_search", unit: "count", better: "lower", moves: "cpu_ms_per_query and rss_mb on travel-cold"},
	{name: "opt.alloc_mb_per_search", unit: "MB", better: "lower", moves: "cpu_ms_per_query and rss_mb on travel-cold"},
	{name: "opt.miss_share", unit: "share", better: "lower", moves: "query_p50_ms on zipf-hot; the travel-cold property floor"},
	{name: "opt.revalidated_share", unit: "share", better: "lower", moves: "query_p50_ms on zipf-hot"},
	{name: "opt.plan_cost", unit: "cost", better: "lower", moves: "none: a plan-quality guard a speed-only change leaves unchanged"},
	{name: "opt.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms on travel-cold"},

	{name: "exec.run_ms", unit: "ms", better: "lower", moves: "query_p50_ms and cpu_ms_per_query on zipf-hot"},
	{name: "exec.first_row_ms", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},
	{name: "exec.alloc_mb_per_query", unit: "MB", better: "lower", moves: "cpu_ms_per_query on zipf-hot"},
	{name: "exec.rows_per_call", unit: "count", better: "higher", moves: "cpu_ms_per_query on zipf-hot and travel-fleet"},
	{name: "exec.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},

	{name: "service.calls_per_query", unit: "count", better: "lower", moves: "cpu_ms_per_query on zipf-hot and travel-fleet"},
	{name: "service.busy_ms_per_query", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},
	{name: "service.sim_s_per_query", unit: "s", better: "lower", moves: "report only at -scale 0: the paper's cost a web deployment would wait"},
	{name: "service.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},

	{name: "rescache.hit_share", unit: "share", better: "higher", moves: "query_p50_ms and cpu_ms_per_query on zipf-hot"},
	{name: "rescache.replay_hit_share", unit: "share", better: "higher", moves: "query_p50_ms and cpu_ms_per_query on zipf-hot"},
	{name: "rescache.invalidations_per_kq", unit: "count", better: "lower", moves: "query_p50_ms and cpu_ms_per_query on zipf-hot"},

	{name: "dist.search_rpc_ms", unit: "ms", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.search_slowest_shard_ms", unit: "ms", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.execute_stream_ms", unit: "ms", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.frames_per_query", unit: "count", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.wire_kb_per_query", unit: "KiB", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.sync_rpcs_per_query", unit: "count", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.cancelled_streams_per_query", unit: "count", better: "lower", moves: "query_p50_ms and throughput_qps on travel-fleet"},
	{name: "dist.fragments_per_query", unit: "count", better: "lower", moves: "query_p50_ms on travel-fleet; its property floor"},
	{name: "dist.self_ms", unit: "ms", better: "lower", moves: "query_p50_ms on travel-fleet"},

	{name: "serve.handler_ms_per_query", unit: "ms", better: "lower", moves: "query_p50_ms on zipf-hot"},
	{name: "serve.coalesced_share", unit: "share", better: "higher", moves: "query_p50_ms on zipf-hot"},
	{name: "serve.response_kb", unit: "KiB", better: "lower", moves: "query_p50_ms on zipf-hot"},

	{name: "trace.overhead_share", unit: "share", better: "lower", moves: "none: the traced replay's cost over the untraced one"},
	{name: "trace.accounted_share", unit: "share", better: "higher", moves: "none: traced cq+opt+exec time over the untraced request time"},
}
