// engine_<shape>: closed loop, one thread, repeated 1,048,576-query
// batches through SpecDrivenSvt::RunAppend with Reset() between batches.
// The shapes reuse the generators of the matching bench_micro cases:
//
//   sparse    answers -1e12 against a common threshold: almost all ⊥;
//   near      answers at (-6 ± 0.5) ν-scales against a common threshold;
//   perquery  the same answers against per-query bars within ±0.5 ν-scale;
//   resample  exponential ρ and ν with resample_threshold_noise, answers
//             at (-5 ± 0.5) ν-scales, so ρ is redrawn thousands of times
//             per batch (the RevSVT shape).
//
// Correctness: after set-up, the first batch of a fresh mechanism must be
// bitwise equal to the streaming Process() loop of another mechanism on
// the same seed. Every timed batch must return one response per query.

#include <bit>
#include <memory>

#include "core/batch_runner.h"
#include "core/response.h"
#include "core/svt.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBatch = size_t{1} << 20;

const char* ShapeName(EngineShape shape) {
  switch (shape) {
    case EngineShape::kSparse:
      return "sparse";
    case EngineShape::kNear:
      return "near";
    case EngineShape::kPerQuery:
      return "perquery";
    case EngineShape::kResample:
      return "resample";
  }
  return "?";
}

svt::SvtOptions ShapeOptions(EngineShape shape) {
  svt::SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;  // no abort inside a batch
  o.monotonic = true;
  if (shape == EngineShape::kResample) {
    o.rho_kind = svt::NoiseKind::kExponential;
    o.nu_kind = svt::NoiseKind::kExponential;
    o.resample_threshold_noise = true;
  }
  return o;
}

struct Engine {
  std::unique_ptr<svt::Rng> rng;  // the mechanism's base stream
  std::unique_ptr<svt::SparseVector> mech;
  std::vector<double> answers;
  std::vector<double> thresholds;  // empty: common threshold 0
  std::vector<svt::Response> out;

  size_t RunBatch() {
    out.clear();
    return thresholds.empty() ? mech->RunAppend(answers, 0.0, &out)
                              : mech->RunAppend(answers, thresholds, &out);
  }
};

bool SameResponse(const svt::Response& a, const svt::Response& b) {
  return a.outcome == b.outcome &&
         std::bit_cast<uint64_t>(a.value) == std::bit_cast<uint64_t>(b.value);
}

// Builds the mechanism and inputs and runs the first batch.
Engine Setup(EngineShape shape, uint64_t seed) {
  Engine e;
  const svt::SvtOptions o = ShapeOptions(shape);
  e.rng = std::make_unique<svt::Rng>(seed);
  e.mech = svt::SparseVector::Create(o, e.rng.get()).value();
  const double nu = e.mech->query_noise_scale();
  svt::Rng gen(seed ^ 0x9e3779b97f4a7c15ULL);
  e.answers.resize(kBatch);
  if (shape == EngineShape::kPerQuery) e.thresholds.resize(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    switch (shape) {
      case EngineShape::kSparse:
        e.answers[i] = -1e12;
        break;
      case EngineShape::kNear:
        e.answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu;
        break;
      case EngineShape::kPerQuery:
        e.answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu;
        e.thresholds[i] = (gen.NextDouble() - 0.5) * nu;
        break;
      case EngineShape::kResample:
        e.answers[i] = (-5.0 + (gen.NextDouble() - 0.5)) * nu;
        break;
    }
  }
  e.out.reserve(kBatch);
  e.RunBatch();
  return e;
}

// True when the first batch of `e` equals, bitwise, the streaming
// Process() loop of a fresh mechanism on the same seed. Runs after the
// timed set-up: it measures the streaming path, not set-up.
bool FirstBatchMatchesStreaming(const Engine& e, EngineShape shape,
                                uint64_t seed) {
  if (e.out.size() != kBatch) return false;
  svt::Rng ref_rng(seed);
  auto ref = svt::SparseVector::Create(ShapeOptions(shape), &ref_rng).value();
  for (size_t i = 0; i < kBatch; ++i) {
    const double t = e.thresholds.empty() ? 0.0 : e.thresholds[i];
    if (!SameResponse(ref->Process(e.answers[i], t), e.out[i])) return false;
  }
  return true;
}

struct Phase {
  std::vector<double> batch_ms;
  svt::BatchRunStats stats;  // summed over the phase's batches
  int64_t responses = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

void Accumulate(const svt::BatchRunStats& s, svt::BatchRunStats* sum) {
  sum->tier1_chunks_skipped += s.tier1_chunks_skipped;
  sum->tier2_chunks_scanned += s.tier2_chunks_scanned;
  sum->tier2_spans_skipped += s.tier2_spans_skipped;
  sum->bound_bytes_touched += s.bound_bytes_touched;
  sum->mega_words_skipped_q += s.mega_words_skipped_q;
  sum->replay_rederivations += s.replay_rederivations;
}

Phase Measure(Engine& e, double seconds, Tracer* tracer,
              WorkloadResult* result) {
  Phase p;
  p.begin = NowNanos();
  const int64_t stop = p.begin + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t batch = 0; NowNanos() < stop; ++batch) {
    ScopedSpan root(tracer, "engine.batch", batch);
    const int64_t t0 = NowNanos();
    {
      ScopedSpan s(tracer, "core.svt.reset", batch);
      e.mech->Reset();
    }
    size_t n = 0;
    {
      ScopedSpan s(tracer, "core.batch_runner.run", batch);
      n = e.RunBatch();
    }
    p.batch_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
    ScopedSpan s(tracer, "bench.check", batch);
    result->Check(n == kBatch && e.out.size() == kBatch &&
                  e.mech->queries_processed() ==
                      static_cast<int64_t>(kBatch));
    Accumulate(e.mech->batch_stats(), &p.stats);
    p.responses += static_cast<int64_t>(e.out.size());
  }
  p.end = NowNanos();
  return p;
}

double Throughput(const Phase& p) {
  const double ms = Median(p.batch_ms);
  return ms > 0.0 ? static_cast<double>(kBatch) / (ms * 1e-3) : 0.0;
}

void AddLayers(WorkloadResult* r, const Phase& p) {
  const svt::BatchRunStats& s = p.stats;
  const double batches = static_cast<double>(p.batch_ms.size());
  const double queries = batches * static_cast<double>(kBatch);
  const double chunks =
      static_cast<double>(s.tier1_chunks_skipped + s.tier2_chunks_scanned);
  const double tier2_spans =
      static_cast<double>(s.tier2_chunks_scanned) *
      static_cast<double>(svt::BatchRunner::kChunkSize /
                          svt::BatchRunner::kBoundSpan);
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  AddLayer(r, "core.batch_runner.run_ms", Median(p.batch_ms), "ms");
  AddLayer(r, "core.batch_runner.tier1_skip_frac",
           ratio(static_cast<double>(s.tier1_chunks_skipped), chunks),
           "ratio");
  AddLayer(r, "core.bound_pipeline.span_skip_frac",
           ratio(static_cast<double>(s.tier2_spans_skipped), tier2_spans),
           "ratio");
  AddLayer(r, "core.bound_pipeline.bytes_per_query",
           ratio(static_cast<double>(s.bound_bytes_touched), queries), "B");
  AddLayer(r, "common.vecmath.words_skipped_frac",
           ratio(static_cast<double>(s.mega_words_skipped_q), queries),
           "ratio");
  AddLayer(r, "core.batch_runner.rederivations_per_batch",
           ratio(static_cast<double>(s.replay_rederivations), batches),
           "count");
  AddLayer(r, "core.response.out_bytes_per_query",
           ratio(static_cast<double>(sizeof(svt::Response)) *
                     static_cast<double>(p.responses),
                 queries),
           "B");
}

}  // namespace

WorkloadResult RunEngineWorkload(EngineShape shape, const RunOptions& opts) {
  WorkloadResult r;
  Engine e;
  const double setup_s =
      MedianSetupSeconds([&] { e = Setup(shape, opts.seed); });
  const bool first_batch_ok = FirstBatchMatchesStreaming(e, shape, opts.seed);
  r.Check(first_batch_ok);
  if (!first_batch_ok) {
    r.notes.push_back(std::string("engine_") + ShapeName(shape) +
                      ": first batch differs from the streaming loop");
  }
  const std::string what = std::string("engine_") + ShapeName(shape) +
                           " batches of " + std::to_string(kBatch);
  if (!opts.trace) {
    const Phase p = Measure(e, opts.seconds, nullptr, &r);
    AddEndToEnd(&r, setup_s, Throughput(p), p.batch_ms, what);
    return r;
  }
  const Phase plain = Measure(e, opts.seconds / 2, nullptr, &r);
  Tracer tracer;
  const Phase traced = Measure(e, opts.seconds / 2, &tracer, &r);
  AddLayers(&r, traced);
  FinishTrace(&r, opts, tracer, traced.begin, traced.end, Throughput(plain),
              Throughput(traced));
  return r;
}

}  // namespace perfbench
