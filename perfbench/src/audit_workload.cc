// audit_mc: EstimateOutputProbability for Alg. 1 and the broken variants
// of the paper's Fig. 2 (Alg. 3-6) on seeded 4-10-query windows. This is
// the batch engine used the opposite way from engine_*: millions of tiny
// Reset + RunAppend calls, so per-call set-up cost shows here.
//
// The end-to-end figures come from one worker (num_workers = 1). With
// num_workers = nproc every call waits for its slowest worker, and on a
// shared 4-vCPU host, when the hypervisor took 16 % of the vCPU time,
// four-worker throughput spread 29 % over four seeds against 8.5 % for one
// worker run alternately with it. Traced runs still time nproc workers,
// for common.thread_pool.scaling_eff.
//
// Correctness: every estimate's Wilson interval must contain the
// closed-form OutputProbability of the same pattern (audit/closed_form),
// computed during set-up. The interval is taken at 1 - 1e-7 confidence so
// a sound estimator essentially never misses.

#include <string>

#include "audit/closed_form.h"
#include "audit/monte_carlo.h"
#include "common/thread_pool.h"
#include "core/variant_spec.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Trials per call: about 7 ms of work on one worker, so a ten-second run
// makes well over 1,000 calls and its tail is a median over several
// windows.
constexpr int64_t kTrials = 1 << 13;
constexpr int kConfigs = 12;
constexpr double kConfidence = 1.0 - 1e-7;

struct Config {
  svt::VariantSpec spec;
  std::vector<double> answers;
  std::string pattern;
  double exact = 0.0;  ///< closed-form probability of `pattern`
};

svt::VariantSpec VariantFor(int i) {
  switch (i % 5) {
    case 0:
      return svt::MakeAlg1Spec(1.0, 1.0, 2);
    case 1:
      return svt::MakeAlg3Spec(1.0, 1.0, 2);
    case 2:
      return svt::MakeAlg4Spec(1.0, 1.0, 2);
    case 3:
      return svt::MakeAlg5Spec(1.0, 1.0);
    default:
      return svt::MakeAlg6Spec(1.0, 1.0);
  }
}

std::vector<Config> Setup(uint64_t seed) {
  svt::Rng gen(seed ^ 0xa0d17ULL);
  // The closed form's cost depends on the pattern (a pattern the cutoff
  // makes impossible is cheap), so the patterns are the same for every
  // seed; the answers come from the seed.
  svt::Rng pattern_gen(0xa0d17ULL);
  std::vector<Config> configs;
  for (int i = 0; i < kConfigs; ++i) {
    Config c;
    c.spec = VariantFor(i);
    // Window lengths cycle through 4..10 so every seed does the same work.
    const size_t window = 4 + static_cast<size_t>(i) % 7;
    for (size_t q = 0; q < window; ++q) {
      c.answers.push_back(gen.NextUniform(-2.0, 2.0));
      c.pattern += pattern_gen.NextBernoulli(0.3) ? 'T' : '_';
    }
    // The estimator counts any positive as 'T'; the indicator law of a
    // variant that emits numeric positives (Alg. 3) is that of the same
    // spec emitting ⊤, which is what the closed form is asked about.
    svt::VariantSpec indicator = c.spec;
    indicator.output_query_value_on_positive = false;
    const std::vector<svt::OutputEvent> events =
        svt::PatternFromString(c.pattern);
    c.exact = svt::OutputProbability(indicator, c.answers, 0.0, events);
    configs.push_back(std::move(c));
  }
  return configs;
}

struct Phase {
  std::vector<double> call_ms;
  int64_t trials = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

Phase Measure(const std::vector<Config>& configs, svt::Rng& rng, int workers,
              double seconds, Tracer* tracer, WorkloadResult* result) {
  svt::McOptions o;
  o.trials = kTrials;
  o.confidence = kConfidence;
  o.num_workers = workers;
  Phase p;
  p.begin = NowNanos();
  const int64_t stop = p.begin + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t call = 0; NowNanos() < stop; ++call) {
    const Config& c = configs[call % configs.size()];
    ScopedSpan root(tracer, "audit.call", call);
    const int64_t t0 = NowNanos();
    svt::McEstimate est;
    {
      ScopedSpan s(tracer, "audit.monte_carlo.estimate", call);
      est = svt::EstimateOutputProbability(c.spec, c.answers, 0.0, c.pattern,
                                           rng, o);
    }
    p.call_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
    p.trials += est.trials;
    ScopedSpan s(tracer, "bench.check", call);
    const bool ok = est.lower <= c.exact && c.exact <= est.upper;
    result->Check(ok);
    if (!ok) {
      result->notes.push_back(c.spec.name + " '" + c.pattern +
                              "': closed form " + std::to_string(c.exact) +
                              " outside [" + std::to_string(est.lower) +
                              ", " + std::to_string(est.upper) + "]");
    }
  }
  p.end = NowNanos();
  return p;
}

double Rate(const Phase& p) {
  return static_cast<double>(p.trials) /
         (static_cast<double>(p.end - p.begin) * 1e-9);
}

}  // namespace

WorkloadResult RunAuditWorkload(const RunOptions& opts) {
  WorkloadResult r;
  std::vector<Config> configs;
  const double setup_s =
      MedianSetupSeconds([&] { configs = Setup(opts.seed); });
  svt::Rng rng(opts.seed);
  if (!opts.trace) {
    const Phase p = Measure(configs, rng, 1, opts.seconds, nullptr, &r);
    AddEndToEnd(&r, setup_s, Rate(p), p.call_ms,
                "audit_mc estimates of " + std::to_string(kTrials) +
                    " trials on one worker");
    return r;
  }
  const Phase plain = Measure(configs, rng, 1, opts.seconds / 3, nullptr, &r);
  Tracer tracer;
  const Phase traced = Measure(configs, rng, 1, opts.seconds / 3, &tracer, &r);
  const int workers = svt::ThreadPool::HardwareThreads();
  const Phase parallel =
      Measure(configs, rng, workers, opts.seconds / 3, nullptr, &r);
  AddLayer(&r, "audit.monte_carlo.us_per_trial", 1e6 / Rate(traced), "us");
  AddLayer(&r, "common.thread_pool.scaling_eff",
           Rate(parallel) / (workers * Rate(plain)), "ratio");
  FinishTrace(&r, opts, tracer, traced.begin, traced.end, Rate(plain),
              Rate(traced));
  return r;
}

}  // namespace perfbench
