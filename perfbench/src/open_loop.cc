#include "open_loop.h"

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace perfbench {

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t length_ns, uint64_t num_keys,
                                     uint32_t num_sizes) {
  svt::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate_per_s * 1e-9 *
                                  static_cast<double>(length_ns) * 1.1) +
              16);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.NextDoublePositive()) * mean_gap_ns;
    if (t >= static_cast<double>(length_ns)) break;
    Arrival a;
    a.due = static_cast<int64_t>(t);
    a.id = out.size();
    a.key = rng.NextBounded(num_keys);
    a.size = static_cast<uint32_t>(rng.NextBounded(num_sizes));
    out.push_back(a);
  }
  return out;
}

double OpenLoopResult::LatencyMs(size_t i) const {
  const RequestRecord& r = records[i];
  if (r.shed) return std::numeric_limits<double>::infinity();
  return static_cast<double>(r.completed - r.due) * 1e-6;
}

OpenLoopResult RunOpenLoop(std::span<const Arrival> schedule,
                           const OpenLoopHooks& hooks) {
  OpenLoopResult res;
  res.records.resize(schedule.size());
  res.start = hooks.now();
  size_t next = 0;
  while (next < schedule.size()) {
    int64_t now = hooks.now();
    const int64_t due = res.start + schedule[next].due;
    if (now < due) {
      hooks.sleep_until(due);
      continue;
    }
    const int64_t busy_from = now;
    const size_t first = next;
    while (next < schedule.size() && res.start + schedule[next].due <= now) {
      RequestRecord& r = res.records[next];
      r.due = res.start + schedule[next].due;
      r.submitted = hooks.now();
      r.shed = !hooks.submit(schedule[next]);
      ++next;
    }
    hooks.drain();
    ++res.drains;
    now = hooks.now();
    for (size_t i = first; i < next; ++i) {
      if (!res.records[i].shed) res.records[i].completed = now;
    }
    res.busy_ns += now - busy_from;
  }
  res.end = hooks.now();
  return res;
}

}  // namespace perfbench
