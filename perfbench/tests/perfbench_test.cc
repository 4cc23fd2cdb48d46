// Unit tests of the benchmark's own code: the tail-percentile rule and its
// windowed median, span self-time arithmetic, open-loop schedule reproducibility, latency
// measured from the due time under a scripted stall, and agreement of the
// reported metrics with BENCHMARK.json.

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "metrics.h"
#include "open_loop.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(ChooseTail, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, ten beyond; p99.9 would leave one.
  TailChoice t = ChooseTail(OneTo(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10);

  // One sample fewer and p99 leaves only nine: fall back to p90.
  t = ChooseTail(OneTo(999));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 900.0);
  EXPECT_EQ(t.beyond, 99);

  t = ChooseTail(OneTo(100000));
  EXPECT_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.beyond, 10);

  t = ChooseTail(OneTo(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 10);
}

TEST(ChooseTail, TooFewSamplesReportTheMedian) {
  const TailChoice t = ChooseTail(OneTo(15));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 8.0);
  EXPECT_EQ(t.beyond, 7);
  EXPECT_EQ(ChooseTail({}).value, 0.0);
}

TEST(ChooseTail, InfiniteSamplesCountAsMisses) {
  std::vector<double> v = OneTo(1000);
  for (int i = 0; i < 11; ++i) v[static_cast<size_t>(i)] = INFINITY;
  EXPECT_TRUE(std::isinf(ChooseTail(v).value));
}

TEST(WindowedTail, OneStalledWindowDoesNotMoveIt) {
  // Ten windows of 200 samples 1..200; each window's tail is its p90, 180.
  std::vector<double> v;
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 200; ++i) v.push_back(i);
  }
  TailChoice last;
  EXPECT_EQ(WindowedTail(v, 200, &last), 180.0);
  EXPECT_EQ(last.percentile, 90.0);
  EXPECT_EQ(last.beyond, 20);
  // A stall that slows a quarter of one window leaves the median alone,
  // while the whole-run p99 jumps to the stall.
  for (int i = 150; i < 200; ++i) v[static_cast<size_t>(i)] = 1000.0;
  EXPECT_EQ(WindowedTail(v, 200, &last), 180.0);
  EXPECT_EQ(ChooseTail(v).value, 1000.0);
  // Fewer than two windows' worth is one window: plain ChooseTail.
  EXPECT_EQ(WindowedTail(OneTo(300), 200, &last), ChooseTail(OneTo(300)).value);
}

TEST(SelfTimes, HandBuiltTree) {
  //   root   [0, 100)
  //   ├─ a   [10, 40)
  //   │  └─ a1 [15, 20)
  //   └─ b   [50, 60)
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"a1", 15, 20, 1, 1},
      {"b", 50, 60, 0, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{60, 25, 5, 10}));
  // The root wraps a and b: its 60 ns of self time are what no layer span
  // explains, so coverage counts only a, a1 and b.
  EXPECT_DOUBLE_EQ(SelfTimeCoverage(spans, self, 0, 100), 0.4);
  EXPECT_DOUBLE_EQ(SelfTimeCoverage(spans, self, 0, 200), 0.2);
  // A root span without children is a layer call of its own and counts.
  const std::vector<Span> flat = {{"x", 0, 30, -1, 1}, {"y", 30, 80, -1, 2}};
  EXPECT_DOUBLE_EQ(SelfTimeCoverage(flat, SelfTimes(flat), 0, 100), 0.8);

  const NameTotal a = TotalFor(spans, self, "a");
  EXPECT_EQ(a.self_ns, 25);
  EXPECT_EQ(a.total_ns, 30);
  EXPECT_EQ(a.count, 1);
}

TEST(SelfTimes, OverlappingChildrenCountOnceAndAreClipped) {
  // Children timed on other threads may overlap each other and run past
  // the parent's end; only the covered part of the parent counts.
  const std::vector<Span> spans = {
      {"p", 0, 100, -1, 0},
      {"x", 10, 50, 0, 0},
      {"y", 30, 70, 0, 0},
      {"z", 90, 130, 0, 0},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
}

TEST(Tracer, NestsSpansUnderTheOpenOne) {
  Tracer t;
  {
    ScopedSpan root(&t, "root", 7);
    { ScopedSpan child(&t, "child", 7); }
  }
  { ScopedSpan off(nullptr, "ignored"); }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].request, 7u);
  EXPECT_LE(t.spans()[0].start, t.spans()[1].start);
  EXPECT_GE(t.spans()[0].end, t.spans()[1].end);
}

bool SameSchedule(const std::vector<Arrival>& a,
                  const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].due != b[i].due || a[i].key != b[i].key ||
        a[i].size != b[i].size || a[i].id != b[i].id) {
      return false;
    }
  }
  return true;
}

TEST(PoissonSchedule, ReproducesFromItsSeed) {
  const int64_t one_s = 1'000'000'000;
  const auto a = PoissonSchedule(42, 5000.0, one_s, 64, 3);
  const auto b = PoissonSchedule(42, 5000.0, one_s, 64, 3);
  const auto c = PoissonSchedule(43, 5000.0, one_s, 64, 3);
  EXPECT_TRUE(SameSchedule(a, b));
  EXPECT_FALSE(SameSchedule(a, c));
  // ~5000 arrivals; 5 sigma is ~350.
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 350.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].due, a[i].due);
    EXPECT_LT(a[i].due, one_s);
    EXPECT_LT(a[i].key, 64u);
    EXPECT_LT(a[i].size, 3u);
  }
}

// Runs 20 arrivals due every 1 ms on a scripted clock where each drain
// takes 0.1 ms, except the drain of request `stall_at`, which takes 10 ms.
OpenLoopResult ScriptedRun(int stall_at) {
  constexpr int64_t kMs = 1'000'000;
  std::vector<Arrival> schedule;
  for (uint64_t i = 0; i < 20; ++i) {
    schedule.push_back({static_cast<int64_t>(i) * kMs, i, 0, 0});
  }
  int64_t clock = 0;
  uint64_t last_submitted = 0;
  OpenLoopHooks hooks;
  hooks.now = [&] { return clock; };
  hooks.sleep_until = [&](int64_t t) { clock = std::max(clock, t); };
  hooks.submit = [&](const Arrival& a) {
    last_submitted = a.id;
    return true;
  };
  hooks.drain = [&] {
    clock += static_cast<int>(last_submitted) == stall_at ? 10 * kMs
                                                          : kMs / 10;
  };
  return RunOpenLoop(schedule, hooks);
}

TEST(OpenLoop, StallRaisesLatencyOfRequestsDueAfterIt) {
  const OpenLoopResult calm = ScriptedRun(-1);
  const OpenLoopResult stalled = ScriptedRun(5);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(calm.LatencyMs(i), 0.1, 1e-9) << i;
  }
  // Before the stall nothing changes; the stalled request itself waits
  // 10 ms.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(stalled.LatencyMs(i), 0.1, 1e-9) << i;
  }
  EXPECT_NEAR(stalled.LatencyMs(5), 10.0, 1e-9);
  // Requests 6..14 fell due during the stall (5 ms .. 15 ms) and are
  // submitted together at 15 ms: their latency counts the wait from their
  // due time, although each one's own service took only 0.1 ms.
  for (size_t i = 6; i <= 14; ++i) {
    EXPECT_NEAR(stalled.LatencyMs(i), 15.1 - static_cast<double>(i), 1e-9)
        << i;
    const RequestRecord& r = stalled.records[i];
    EXPECT_EQ(r.completed - r.submitted, 100'000) << i;
  }
  // The loop caught up: request 15 is on time again.
  EXPECT_NEAR(stalled.LatencyMs(15), 0.1, 1e-9);
  EXPECT_EQ(stalled.drains, calm.drains - 9);
}

TEST(OpenLoop, ShedRequestsMissEveryLimit) {
  std::vector<Arrival> schedule = {{0, 0, 0, 0}, {0, 1, 0, 0}};
  int64_t clock = 0;
  OpenLoopHooks hooks;
  hooks.now = [&] { return clock; };
  hooks.sleep_until = [&](int64_t t) { clock = t; };
  hooks.submit = [&](const Arrival& a) { return a.id == 0; };
  hooks.drain = [&] { clock += 1000; };
  const OpenLoopResult r = RunOpenLoop(schedule, hooks);
  EXPECT_NEAR(r.LatencyMs(0), 0.001, 1e-12);
  EXPECT_TRUE(std::isinf(r.LatencyMs(1)));
}

// Names and units of one BENCHMARK.json metric list, in order.
std::vector<std::pair<std::string, std::string>> JsonMetrics(
    const std::string& json, const std::string& list) {
  const size_t begin = json.find("\"" + list + "\"");
  const size_t end = json.find(']', begin);
  const std::string section = json.substr(begin, end - begin);
  const std::regex entry(
      "\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(section.begin(), section.end(), entry), stop;
       it != stop; ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

template <size_t N>
std::vector<std::pair<std::string, std::string>> Declared(
    const MetricDecl (&decls)[N]) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricDecl& d : decls) out.emplace_back(d.name, d.unit);
  return out;
}

TEST(Metrics, MatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(JsonMetrics(buf.str(), "end_to_end"), Declared(kEndToEnd));
  EXPECT_EQ(JsonMetrics(buf.str(), "per_layer"), Declared(kPerLayer));
}

}  // namespace
}  // namespace perfbench
