// Small helpers shared by every perfbench workload: the monotonic clock,
// sample summaries (median, quartiles, the tail-percentile rule), peak RSS,
// and the metric/result records main.cc prints.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
int64_t NowNanos();

/// Median of `samples` (mean of the middle two for even counts); 0 when
/// empty. Takes a copy: the caller's order is kept.
double Median(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// The tail percentile a timing is reported at: the highest of
/// {99.99, 99.9, 99, 90, 50} that leaves at least `min_beyond` samples
/// strictly beyond its nearest-rank position. With fewer samples than that
/// even at the median, the median is reported (and `beyond` says how thin
/// it is).
struct TailChoice {
  double percentile = 50.0;
  double value = 0.0;
  int64_t beyond = 0;  ///< samples ranked above the reported one
};
TailChoice ChooseTail(std::vector<double> samples, int64_t min_beyond = 10);

/// The tail the benchmark reports: `samples` (in time order) are cut into
/// consecutive windows of about `window` samples, ChooseTail picks each
/// window's tail, and the median over the windows is returned. On a shared
/// host a whole-run p99 is set by how many neighbour stalls the run met,
/// and moved by up to a third between runs; one stall moves one window.
/// *choice receives the last window's choice, for the report.
double WindowedTail(const std::vector<double>& samples, size_t window,
                    TailChoice* choice);

/// Peak resident set size of this process (VmHWM), in MiB; 0 if unknown.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs; `notes` are human-readable lines (sample
/// counts, chosen percentiles) printed before the result line.
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  /// Records one checked operation; a false `ok` is a failure.
  void Check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// Formats `v` as a JSON number with all significant digits (%.17g);
/// non-finite values become null.
std::string JsonNumber(double v);

/// Escapes `s` for use inside a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
