package main

// endToEndMetrics are the gated metrics of a run with tracing off, in
// BENCHMARK.json order. Every workload reports every one of them:
//
//   - round_cpu_s: process CPU seconds (user + system) of one round,
//     the mean over the workload's inputs of each input's median. A
//     round is one trial of each arm on fig1_cells and sharded_ring,
//     and on sweep_serve the client session: the cold sweep and the
//     overlapping one.
//   - alloc_MB: bytes allocated per round, averaged the same way.
//   - ttlb_p50_s and ttlb_gain are simulated, pooled over the first run
//     of every input, so they do not depend on the run's length.
//   - ok_ratio is 1 − fail_ratio (fail_ratio itself is 0 when all is
//     well, and a gated metric must never read 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"round_cpu_s", "s"},
	{"alloc_MB", "MB"},
	{"peak_rss_MB", "MB"},
	{"ttlb_p50_s", "s"},
	{"ttlb_gain", "ratio"},
	{"ok_ratio", "ratio"},
}

// reportOnlyMetrics are printed beside the gated set by an untraced
// run, with their sample counts, but are not gated. On the shared
// 2-CPU reference box wall time drifts with the neighbours' load: the
// wall time of a 2-shard sharded_ring round spread 31% over ten runs
// while its CPU time spread 5%, so round_s is reported, not gated.
// first_row_ms on sweep_serve hangs on a single grid point and spreads
// over a third across seeds; wall_s, trial_p50_ms, trial_p90_ms and
// overlap_wall_ms apply to some workloads only.
var reportOnlyMetrics = []metricDef{
	{"round_s", "s"},
	{"first_row_ms", "ms"},
	{"wall_s", "s"},
	{"trial_p50_ms", "ms"},
	{"trial_p90_ms", "ms"},
	{"overlap_wall_ms", "ms"},
}

// perLayerMetrics are reported by a traced run, each labelled with its
// module. A layer a workload does not load reads 0. What each group
// should move, and where:
//
//   - sim: round_cpu_s on fig1_cells strongly, on sweep_serve weakly.
//   - netem: round_cpu_s on fig1_cells (trains of 1.0) and on
//     sweep_serve (trains of about 4).
//   - netem.shard: round_cpu_s and alloc_MB on sharded_ring only.
//   - relay, endpoint, transport, onion: round_cpu_s on sweep_serve
//     most, on sharded_ring least.
//   - core: first_row_ms and round_cpu_s on sweep_serve.
//   - sched, resource: round_cpu_s on sweep_serve only.
//   - scenario: counts a speed-only change must not move.
//   - sweep, traceio: round_cpu_s and overlap_wall_ms on sweep_serve.
//   - spec, serve: setup_s, first_row_ms and overlap_wall_ms.
//   - arena, runtime: alloc_MB and peak_rss_MB on all three.
var perLayerMetrics = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_trial", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.run_self_ms", "ms"},
	{"netem.frames", "count"},
	{"netem.trains", "count"},
	{"netem.mean_train_len", "frames"},
	{"netem.queue_delay_ms_mean", "ms"},
	{"netem.max_queue_len", "frames"},
	{"netem.drops_tail", "count"},
	{"netem.drops_loss", "count"},
	{"netem.drops_down", "count"},
	{"netem.drops_sched", "count"},
	{"netem.unknown_dst", "count"},
	{"netem.unroutable", "count"},
	{"netem.shard.windows", "count"},
	{"netem.shard.window_us_p50", "us"},
	{"netem.shard.barrier_ms", "ms"},
	{"netem.shard.event_imbalance", "ratio"},
	{"relay.deliver_self_ms", "ms"},
	{"relay.cells_forwarded", "count"},
	{"relay.recognized", "count"},
	{"endpoint.deliver_self_ms", "ms"},
	{"transport.transmitted", "count"},
	{"transport.retransmitted", "count"},
	{"transport.rtos", "count"},
	{"transport.rounds", "count"},
	{"transport.useful_ratio", "ratio"},
	{"onion.cells", "count"},
	{"onion.ns_per_cell", "ns"},
	{"onion.share_computed", "ratio"},
	{"core.build_ms_per_trial", "ms"},
	{"core.circuit_build_us_p50", "us"},
	{"sched.drops", "count"},
	{"resource.admitted", "count"},
	{"resource.rejected", "count"},
	{"resource.killed", "count"},
	{"resource.mem_hw_bytes", "bytes"},
	{"scenario.stalls", "count"},
	{"scenario.recoveries", "count"},
	{"scenario.retries", "count"},
	{"scenario.churn_built", "count"},
	{"sweep.point_ms_p50", "ms"},
	{"sweep.sink_us_per_row", "us"},
	{"sweep.points_computed", "count"},
	{"sweep.points_replayed", "count"},
	{"traceio.bytes_per_row", "bytes"},
	{"spec.parse_us", "us"},
	{"spec.point_key_us", "us"},
	{"serve.submit_ms", "ms"},
	{"serve.row_gap_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"arena.alloc_first_trial_MB", "MB"},
	{"arena.alloc_steady_trial_MB", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead", "ratio"},
}
