// serving_open: an open loop of seeded Poisson arrivals into
// RequestBatcher + ShardedSvtServer (4 shards, kAutoReset). Requests carry
// 1k, 16k or 64k queries of mostly far-below-threshold answers (one per
// 4096 far above, so runs do hit their cutoff and reset), keyed uniformly
// over 64 keys. The batcher's queue is bounded with kReject; response
// buffers are reused. One loop thread submits each request when it is
// due, then drains (open_loop.h); the shards of a drain run one after
// another on that thread (RunSchedule says why).
//
// The run offers three to four times what the loop completes (goodput
// 2.7k-4.4k req/s over ten-seed passes on a shared 4-vCPU Xeon): the
// queue is full and sheds throughout, every drain runs a full batch
// across the shards, and the loop is never idle. Untraced runs report
// goodput (admitted, hence completed, requests per second) and the median
// and tail latency of admitted requests from their due time; a shed
// request is counted, not timed. Traced runs measure a third untraced, a
// third traced, and a third at a light nominal load, whose latency is
// reported as per-layer figures only.
//
// Two designs closer to "latency at a fixed rate, and the highest rate of
// a fixed ladder whose p99 meets a limit" were tried and dropped on a
// shared 4-vCPU host: the ladder's maximum was bistable (3.7k to 7.6k
// req/s for one seed), because the loop drains synchronously and its
// capacity roughly doubles once arrivals queue up enough for drains to run
// several shards in parallel; and light-load latency moved by a quarter
// between runs minutes apart, as other tenants came and went.
//
// Correctness: submitted + shed == offered, and every request that drains
// with kOk has exactly one response per query.

#include <algorithm>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "serving/request_batcher.h"
#include "serving/sharded_server.h"
#include "open_loop.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kShards = 4;
constexpr uint64_t kKeys = 64;
constexpr size_t kMaxPending = 32;
constexpr size_t kSizes[] = {1024, 16384, 65536};
constexpr uint32_t kNumSizes = 3;
/// Offered load, requests per second: three to four times what the loop
/// completes, so the bounded queue is full and sheds throughout and every
/// drain runs a full batch across the shards.
constexpr double kOfferedRate = 12000.0;
/// A light load, reported by traced runs only: the loop is busy about a
/// third of the time. Latency there (about 0.2 ms median, 2 ms p99) moved
/// by a quarter between runs minutes apart on a shared 4-vCPU host, too
/// much to gate on.
constexpr double kNominalRate = 1000.0;

struct Slot {
  std::vector<svt::Response> out;
  svt::RequestOutcome outcome = svt::RequestOutcome::kPending;
  size_t queries = 0;
  int64_t submitted = 0;
};

struct Server {
  /// One worker that runs the open loop (see RunSchedule).
  std::unique_ptr<svt::ThreadPool> loop_pool;
  std::unique_ptr<svt::ShardedSvtServer> server;
  std::unique_ptr<svt::RequestBatcher> batcher;
  std::vector<std::vector<double>> pools;  // answers per size class
  std::vector<Slot> slots;
  int64_t offered = 0;
};

Server Setup(uint64_t seed) {
  Server s;
  s.loop_pool = std::make_unique<svt::ThreadPool>(1);
  svt::ServingOptions o;
  o.num_shards = kShards;
  o.seed = seed;
  o.mode = svt::ShardMode::kAutoReset;
  o.svt.epsilon = 0.1;
  o.svt.cutoff = 8;
  o.svt.monotonic = true;
  s.server = svt::ShardedSvtServer::Create(o).value();
  svt::RequestBatcher::Options bo;
  bo.max_pending = kMaxPending;
  bo.shed_policy = svt::ShedPolicy::kReject;
  s.batcher = std::make_unique<svt::RequestBatcher>(s.server.get(), bo);
  svt::Rng gen(seed ^ 0x5eedULL);
  for (size_t n : kSizes) {
    // Exactly one far-above answer per started 4096, at seeded positions,
    // so every seed offers the same amount of work.
    std::vector<double> answers(n, -1e12);
    for (size_t block = 0; block < n; block += 4096) {
      answers[block + gen.NextBounded(std::min<size_t>(4096, n - block))] =
          1e12;
    }
    s.pools.push_back(std::move(answers));
  }
  // Every slot's buffer is grown (and its pages touched) up front, so
  // memory does not depend on which slots the schedule happens to fill.
  // The queue admits at most kMaxPending requests between drains; the
  // one spare slot is handed to submissions the full queue sheds, which
  // never write to it.
  s.slots.resize(kMaxPending + 1);
  for (Slot& slot : s.slots) slot.out.resize(kSizes[kNumSizes - 1]);
  // Warm-up: a full queue of the largest requests for each shard in turn
  // grows every shard's drain buffer to its high-water mark (so memory
  // does not depend on how the schedule happens to batch) and starts the
  // global thread pool before anything is timed.
  for (int shard = 0; shard < kShards; ++shard) {
    uint64_t key = 0;
    while (s.server->ShardOf(key) != shard) ++key;
    for (size_t i = 0; i < kMaxPending; ++i) {
      (void)s.batcher->Submit(key, s.pools[kNumSizes - 1], 0.0,
                              &s.slots[i].out);
    }
    s.batcher->Drain();
  }
  return s;
}

struct Phase {
  OpenLoopResult loop;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> drain_ms;
  std::vector<double> imbalance;
  int64_t shed = 0;
};

// Runs `schedule` on the calling thread; checks every drained request.
// Per-layer observations are collected only with a tracer.
Phase RunScheduleHere(Server& s, const std::vector<Arrival>& schedule,
                      Tracer* tracer, WorkloadResult* result) {
  Phase p;
  size_t used = 0;  // slots filled since the last drain
  std::vector<int64_t> exec_before(kShards, 0);
  OpenLoopHooks hooks;
  hooks.now = NowNanos;
  hooks.sleep_until = [&](int64_t t) {
    ScopedSpan span(tracer, "serving.loop.wait");
    // Sleep most of the gap, then yield-spin the last stretch: sleep
    // overshoot would otherwise show up as loop lag.
    constexpr int64_t kSpinNs = 1'000'000;
    const int64_t now = NowNanos();
    if (t - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - kSpinNs));
    }
    while (NowNanos() < t) std::this_thread::yield();
  };
  hooks.submit = [&](const Arrival& a) {
    ++s.offered;
    Slot& slot = s.slots[used];
    const std::vector<double>& answers = s.pools[a.size];
    ScopedSpan span(tracer, "serving.request_batcher.submit", a.id);
    const int64_t t0 = NowNanos();
    const bool admitted =
        s.batcher->Submit(a.key, answers, 0.0, &slot.out, {}, &slot.outcome)
            .ok();
    if (tracer != nullptr) {
      p.submit_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
    }
    if (!admitted) {
      ++p.shed;
      return false;
    }
    slot.queries = answers.size();
    slot.submitted = t0;
    ++used;
    return true;
  };
  hooks.drain = [&] {
    const int64_t t0 = NowNanos();
    if (tracer != nullptr) {
      for (int i = 0; i < kShards; ++i) {
        exec_before[i] = s.server->StatsForShard(i).exec_nanos;
      }
    }
    {
      ScopedSpan span(tracer, "serving.request_batcher.drain");
      s.batcher->Drain();
    }
    ScopedSpan span(tracer, "bench.check");
    if (tracer != nullptr) {
      p.drain_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
      int64_t slowest = 0, total = 0;
      for (int i = 0; i < kShards; ++i) {
        const int64_t d = s.server->StatsForShard(i).exec_nanos - exec_before[i];
        slowest = std::max(slowest, d);
        total += d;
      }
      if (total > 0) {
        p.imbalance.push_back(static_cast<double>(slowest) * kShards /
                              static_cast<double>(total));
      }
      // Queue wait: from Submit to the start of the drain that took it.
      for (size_t i = 0; i < used; ++i) {
        p.queue_wait_ms.push_back(
            static_cast<double>(t0 - s.slots[i].submitted) * 1e-6);
      }
    }
    for (size_t i = 0; i < used; ++i) {
      const Slot& slot = s.slots[i];
      result->Check(slot.outcome == svt::RequestOutcome::kOk &&
                    slot.out.size() == slot.queries);
    }
    used = 0;
  };
  p.loop = RunOpenLoop(schedule, hooks);
  return p;
}

// Runs `schedule` on the loop pool's one worker. From a pool worker,
// RequestBatcher's ParallelFor runs a drain's shards inline, one after
// another, so the whole loop is one busy thread. A drain spread over all
// four vCPUs of the shared host measured the neighbours instead: goodput
// ranged 5.1k-7.7k req/s over ten seeds (23 % spread), against a bound of
// 25 %.
Phase RunSchedule(Server& s, const std::vector<Arrival>& schedule,
                  Tracer* tracer, WorkloadResult* result) {
  Phase p;
  s.loop_pool->Submit(
      [&] { p = RunScheduleHere(s, schedule, tracer, result); });
  s.loop_pool->WaitIdle();
  return p;
}

std::vector<double> LatenciesMs(const OpenLoopResult& loop) {
  std::vector<double> ms;
  ms.reserve(loop.records.size());
  for (size_t i = 0; i < loop.records.size(); ++i) {
    ms.push_back(loop.LatencyMs(i));
  }
  return ms;
}

// Admitted (hence completed) requests per second over the phase.
double Goodput(const Phase& p) {
  return static_cast<double>(static_cast<int64_t>(p.loop.records.size()) -
                             p.shed) /
         (static_cast<double>(p.loop.end - p.loop.start) * 1e-9);
}

// Latency of the admitted requests, from their due time, in due order.
std::vector<double> AdmittedLatenciesMs(const OpenLoopResult& loop) {
  std::vector<double> ms;
  for (size_t i = 0; i < loop.records.size(); ++i) {
    if (!loop.records[i].shed) ms.push_back(loop.LatencyMs(i));
  }
  return ms;
}

void AddLayers(WorkloadResult* r, const Server& s, const Phase& p) {
  const OpenLoopResult& loop = p.loop;
  std::vector<double> lag_ms;
  for (const RequestRecord& rec : loop.records) {
    lag_ms.push_back(static_cast<double>(rec.submitted - rec.due) * 1e-6);
  }
  AddLayer(r, "serving.request_batcher.submit_us.p50", Median(p.submit_us),
           "us");
  AddLayer(r, "serving.request_batcher.submit_us.p99",
           Percentile(p.submit_us, 99), "us");
  AddLayer(r, "serving.request_batcher.queue_wait_ms.p50",
           Median(p.queue_wait_ms), "ms");
  AddLayer(r, "serving.request_batcher.queue_wait_ms.p99",
           Percentile(p.queue_wait_ms, 99), "ms");
  AddLayer(r, "serving.request_batcher.drain_ms.p50", Median(p.drain_ms),
           "ms");
  AddLayer(r, "serving.request_batcher.drain_ms.p99",
           Percentile(p.drain_ms, 99), "ms");
  AddLayer(r, "serving.request_batcher.requests_per_drain",
           static_cast<double>(static_cast<int64_t>(loop.records.size()) -
                               p.shed) /
               static_cast<double>(std::max<int64_t>(loop.drains, 1)),
           "count");
  const svt::ServingStats total = s.server->TotalStats();
  AddLayer(r, "serving.sharded_server.exec_ms.p50",
           static_cast<double>(total.exec_p50_nanos()) * 1e-6, "ms");
  AddLayer(r, "serving.sharded_server.exec_ms.p99",
           static_cast<double>(total.exec_p99_nanos()) * 1e-6, "ms");
  AddLayer(r, "serving.sharded_server.shard_imbalance", Median(p.imbalance),
           "ratio");
  AddLayer(r, "serving.loop.busy_frac",
           static_cast<double>(loop.busy_ns) /
               static_cast<double>(std::max<int64_t>(loop.end - loop.start, 1)),
           "ratio");
  AddLayer(r, "serving.loop.lag_ms.p99", Percentile(lag_ms, 99), "ms");
  AddLayer(r, "serving.request_batcher.shed", static_cast<double>(p.shed),
           "count");
  AddLayer(r, "serving.request_batcher.queue_high_water",
           static_cast<double>(s.batcher->stats().queue_high_water), "count");
}

}  // namespace

WorkloadResult RunServingWorkload(const RunOptions& opts) {
  WorkloadResult r;
  Server s;
  const double setup_s = MedianSetupSeconds([&] {
    s.batcher.reset();  // a batcher must not outlive its server
    s = Server();       // free the previous set-up before the next
    s = Setup(opts.seed);
  });
  const svt::RequestBatcher::BatcherStats before = s.batcher->stats();
  const int64_t offered_before = s.offered;

  if (!opts.trace) {
    const Phase p = RunSchedule(
        s,
        PoissonSchedule(opts.seed, kOfferedRate,
                        static_cast<int64_t>(opts.seconds * 1e9), kKeys,
                        kNumSizes),
        nullptr, &r);
    AddEndToEnd(&r, setup_s, Goodput(p), AdmittedLatenciesMs(p.loop),
                "serving_open admitted requests at an offered " +
                    std::to_string(static_cast<int>(kOfferedRate)) +
                    " req/s (" + std::to_string(p.shed) + " of " +
                    std::to_string(p.loop.records.size()) + " shed)");
  } else {
    // Thirds: overload untraced, overload traced, nominal load untraced.
    const int64_t third_ns = static_cast<int64_t>(opts.seconds / 3 * 1e9);
    const Phase plain = RunSchedule(
        s, PoissonSchedule(opts.seed, kOfferedRate, third_ns, kKeys, kNumSizes),
        nullptr, &r);
    Tracer tracer;
    const Phase traced = RunSchedule(
        s,
        PoissonSchedule(opts.seed + 1, kOfferedRate, third_ns, kKeys,
                        kNumSizes),
        &tracer, &r);
    const Phase nominal = RunSchedule(
        s,
        PoissonSchedule(opts.seed + 2, kNominalRate, third_ns, kKeys,
                        kNumSizes),
        nullptr, &r);
    AddLayers(&r, s, traced);
    const std::vector<double> nominal_ms = LatenciesMs(nominal.loop);
    AddLayer(&r, "serving.open_loop.nominal_p50_ms", Median(nominal_ms), "ms");
    AddLayer(&r, "serving.open_loop.nominal_p99_ms",
             Percentile(nominal_ms, 99), "ms");
    FinishTrace(&r, opts, tracer, traced.loop.start, traced.loop.end,
                Goodput(plain), Goodput(traced));
  }

  const svt::RequestBatcher::BatcherStats after = s.batcher->stats();
  const int64_t offered = s.offered - offered_before;
  const int64_t accounted = (after.submitted - before.submitted) +
                            (after.shed_overload - before.shed_overload) +
                            (after.shed_deadline - before.shed_deadline) +
                            (after.shed_shutdown - before.shed_shutdown);
  r.Check(accounted == offered &&
          after.shed_deadline == before.shed_deadline &&
          after.shed_shutdown == before.shed_shutdown);
  return r;
}

}  // namespace perfbench
