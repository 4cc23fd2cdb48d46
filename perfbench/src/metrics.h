// The metrics the benchmark reports, in BENCHMARK.json's order
// (perfbench_test checks the two agree). Untraced runs print kEndToEnd,
// traced runs kPerLayer; a metric a workload does not exercise prints 0.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricDecl {
  const char* name;
  const char* unit;
};

inline constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"}, {"throughput_per_s", "1/s"},
    {"p50_ms", "ms"},        {"tail_ms", "ms"},
};

inline constexpr MetricDecl kPerLayer[] = {
    {"core.batch_runner.run_ms", "ms"},
    {"core.batch_runner.tier1_skip_frac", "ratio"},
    {"core.bound_pipeline.span_skip_frac", "ratio"},
    {"core.bound_pipeline.bytes_per_query", "B"},
    {"common.vecmath.words_skipped_frac", "ratio"},
    {"core.batch_runner.rederivations_per_batch", "count"},
    {"core.response.out_bytes_per_query", "B"},
    {"data.score_vector.shuffle_ms", "ms"},
    {"core.top_select.paper_threshold_ms", "ms"},
    {"core.svt.select_ms", "ms"},
    {"core.exponential_mechanism.select_ms", "ms"},
    {"eval.metrics.score_ms", "ms"},
    {"core.svt_retraversal.select_ms", "ms"},
    {"core.svt_retraversal.comparisons_per_run", "count"},
    {"core.svt_retraversal.passes_per_run", "count"},
    {"serving.request_batcher.submit_us.p50", "us"},
    {"serving.request_batcher.submit_us.p99", "us"},
    {"serving.request_batcher.queue_wait_ms.p50", "ms"},
    {"serving.request_batcher.queue_wait_ms.p99", "ms"},
    {"serving.request_batcher.drain_ms.p50", "ms"},
    {"serving.request_batcher.drain_ms.p99", "ms"},
    {"serving.request_batcher.requests_per_drain", "count"},
    {"serving.sharded_server.exec_ms.p50", "ms"},
    {"serving.sharded_server.exec_ms.p99", "ms"},
    {"serving.sharded_server.shard_imbalance", "ratio"},
    {"serving.loop.busy_frac", "ratio"},
    {"serving.loop.lag_ms.p99", "ms"},
    {"serving.request_batcher.shed", "count"},
    {"serving.request_batcher.queue_high_water", "count"},
    {"serving.open_loop.nominal_p50_ms", "ms"},
    {"serving.open_loop.nominal_p99_ms", "ms"},
    {"audit.monte_carlo.us_per_trial", "us"},
    {"common.thread_pool.scaling_eff", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_time_coverage", "ratio"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
