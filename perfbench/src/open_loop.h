// Open-loop load generation for the serving workload.
//
// Arrivals follow a seeded Poisson process: the same (seed, rate, length)
// gives the same schedule, so two commits see identical offered load. One
// loop thread submits each request when it is due, then drains; requests
// that fell due while the loop was busy are submitted together at the next
// turn. Latency runs from a request's *due* time to the end of the drain
// that completed it, so a stall shows up in every request due after it,
// not only in the one that was executing. The loop also records how late
// it submitted each request (lag) and how much of its time it was busy.
//
// The loop talks to the system through OpenLoopHooks, so tests can drive
// it with a scripted clock instead of real time.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

struct Arrival {
  int64_t due = 0;     ///< ns after the start of the schedule
  uint64_t id = 0;     ///< position in the schedule
  uint64_t key = 0;    ///< routing key
  uint32_t size = 0;   ///< size class index
};

/// Poisson arrivals at `rate_per_s` over `length_ns`, each with a uniform
/// key in [0, num_keys) and a uniform size class in [0, num_sizes).
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t length_ns, uint64_t num_keys,
                                     uint32_t num_sizes);

struct OpenLoopHooks {
  std::function<int64_t()> now;                   ///< current time, ns
  std::function<void(int64_t)> sleep_until;       ///< wait until time, ns
  std::function<bool(const Arrival&)> submit;     ///< false = shed
  std::function<void()> drain;                    ///< completes submitted
};

struct RequestRecord {
  int64_t due = 0;        ///< absolute due time
  int64_t submitted = 0;  ///< absolute time Submit was called
  int64_t completed = 0;  ///< end of the completing drain (0 if shed)
  bool shed = false;
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;  ///< aligned with the schedule
  int64_t start = 0;
  int64_t end = 0;
  int64_t busy_ns = 0;  ///< time spent submitting and draining
  int64_t drains = 0;

  /// Latency of request i (completed - due) in ms; +inf when shed, so a
  /// refused request misses every latency limit.
  double LatencyMs(size_t i) const;
};

/// Runs `schedule` starting at hooks.now().
OpenLoopResult RunOpenLoop(std::span<const Arrival> schedule,
                           const OpenLoopHooks& hooks);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
