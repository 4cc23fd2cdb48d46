// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (the library itself carries no tracing). A span has a
// name, a start and end on the steady clock, the span that caused it, and
// the id of the request (batch, cell, trial call) it belongs to. Spans are
// kept in memory and written out when the run ends.
//
// A span's self time is its duration minus the part of its interval its
// children cover. A loop iteration is one root span with a span around
// each layer call under it; the root's own self time is then the time no
// layer span explains. The coverage the traced run reports leaves those
// wrapper roots out: it is the share of wall time the other spans' self
// times account for, so a layer call that loses its span lowers it.
//
// A Tracer records from one thread (the thread that calls into the
// library); it is not thread-safe. A null Tracer* disables recording:
// ScopedSpan then does nothing but one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string naming the layer call
  int64_t start = 0;      ///< ns, steady clock
  int64_t end = 0;        ///< ns, steady clock
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;   ///< request id shared by one request's spans
};

class Tracer {
 public:
  explicit Tracer(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const char* name, uint64_t request);
  /// Closes span `index` (must be the innermost open span).
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one tab-separated line per span (index, name, start, end,
  /// parent, request, self) to `path`. Returns false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  ///< stack of open span indices
};

/// Per-span self time: duration minus the union of its children's
/// intervals clipped to its own. Children are spans whose `parent` names
/// it; overlapping children (possible when they were timed on other
/// threads) are counted once.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sum of self times of spans named `name`, and their count.
struct NameTotal {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  int64_t count = 0;
};
NameTotal TotalFor(const std::vector<Span>& spans,
                   const std::vector<int64_t>& self_times, const char* name);

/// Fraction of [begin, end] that the self times of the spans inside it
/// account for, leaving out root spans that have children (iteration
/// wrappers; their self time is what no layer span explains).
double SelfTimeCoverage(const std::vector<Span>& spans,
                        const std::vector<int64_t>& self_times, int64_t begin,
                        int64_t end);

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
