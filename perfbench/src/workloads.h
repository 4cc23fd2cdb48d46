// The benchmark's workloads. Each one builds its inputs from the seed,
// times its set-up, measures for the requested seconds, checks the
// program's outputs, and fills a WorkloadResult:
//
//   * untraced runs report the end-to-end metrics (every workload reports
//     the same five: setup_s, peak_rss_mb, throughput_per_s, p50_ms,
//     tail_ms — see perfbench/README.md for what one operation is);
//   * traced runs measure half the time untraced and half traced, report
//     the per-layer metrics from the traced half, the tracing overhead
//     (trace.overhead_frac) and how much of the traced wall time the
//     spans' self times cover (trace.self_time_coverage).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (TSV); empty = not written.
  std::string trace_path;
};

enum class EngineShape { kSparse, kNear, kPerQuery, kResample };

WorkloadResult RunEngineWorkload(EngineShape shape, const RunOptions& opts);
WorkloadResult RunSweepWorkload(const RunOptions& opts);
WorkloadResult RunServingWorkload(const RunOptions& opts);
WorkloadResult RunAuditWorkload(const RunOptions& opts);

// ---- helpers shared by the workloads (workloads.cc) ----

/// Set-up runs at least kSetupMinRepeats times and until kSetupBudgetS
/// seconds have gone, at most kSetupMaxRepeats times; setup_s is the
/// median. A set-up of a few milliseconds is noisy, so cheap ones repeat
/// more.
inline constexpr int kSetupMinRepeats = 5;
inline constexpr int kSetupMaxRepeats = 1001;
inline constexpr double kSetupBudgetS = 1.0;

/// Median wall time, in seconds, of repeated calls of `setup`.
template <typename F>
double MedianSetupSeconds(F&& setup) {
  std::vector<double> seconds;
  double spent = 0.0;
  while (seconds.size() < kSetupMaxRepeats &&
         (seconds.size() < kSetupMinRepeats || spent < kSetupBudgetS)) {
    const int64_t t0 = NowNanos();
    setup();
    seconds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    spent += seconds.back();
  }
  return Median(seconds);
}

/// Samples per window of the reported tail (WindowedTail): each window's
/// tail is then its p90, with about 20 samples beyond it.
inline constexpr size_t kTailWindow = 200;

/// Adds setup_s, throughput_per_s, p50_ms (median of `op_ms`) and tail_ms
/// (WindowedTail of `op_ms`, which must be in time order, over windows of
/// about `tail_window` samples); peak_rss_mb is added by main.cc at exit.
/// A note names the tail percentile and the sample counts.
void AddEndToEnd(WorkloadResult* result, double setup_s,
                 double throughput_per_s, const std::vector<double>& op_ms,
                 const std::string& what, size_t tail_window = kTailWindow);

/// Adds trace.overhead_frac (how much lower the traced phase's throughput
/// is than the untraced phase's) and trace.self_time_coverage over
/// [begin, end], and writes the spans to opts.trace_path.
void FinishTrace(WorkloadResult* result, const RunOptions& opts,
                 const Tracer& tracer, int64_t begin, int64_t end,
                 double untraced_rate, double traced_rate);

/// Appends a per-layer metric.
inline void AddLayer(WorkloadResult* result, std::string name, double value,
                     std::string unit) {
  result->per_layer.push_back({std::move(name), value, std::move(unit)});
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
