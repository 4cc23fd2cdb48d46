#include "workloads.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

void AddEndToEnd(WorkloadResult* result, double setup_s,
                 double throughput_per_s, const std::vector<double>& op_ms,
                 const std::string& what, size_t tail_window) {
  TailChoice last;
  const double tail = WindowedTail(op_ms, tail_window, &last);
  result->end_to_end.push_back({"setup_s", setup_s, "s"});
  result->end_to_end.push_back({"throughput_per_s", throughput_per_s, "1/s"});
  result->end_to_end.push_back({"p50_ms", Median(op_ms), "ms"});
  result->end_to_end.push_back({"tail_ms", tail, "ms"});
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu samples; tail_ms is the median over %zu windows of "
                "each window's p%g (%lld samples beyond it)",
                what.c_str(), op_ms.size(),
                std::max<size_t>(op_ms.size() / tail_window, 1),
                last.percentile, static_cast<long long>(last.beyond));
  result->notes.push_back(buf);
}

void FinishTrace(WorkloadResult* result, const RunOptions& opts,
                 const Tracer& tracer, int64_t begin, int64_t end,
                 double untraced_rate, double traced_rate) {
  const double overhead = untraced_rate > 0.0 && traced_rate > 0.0
                              ? untraced_rate / traced_rate - 1.0
                              : 0.0;
  AddLayer(result, "trace.overhead_frac", overhead, "ratio");
  const std::vector<int64_t> self = SelfTimes(tracer.spans());
  AddLayer(result, "trace.self_time_coverage",
           SelfTimeCoverage(tracer.spans(), self, begin, end), "ratio");
  result->notes.push_back("traced spans: " +
                          std::to_string(tracer.spans().size()));
  if (!opts.trace_path.empty() && !tracer.WriteTsv(opts.trace_path)) {
    result->notes.push_back("could not write spans to " + opts.trace_path);
  }
}

}  // namespace perfbench
