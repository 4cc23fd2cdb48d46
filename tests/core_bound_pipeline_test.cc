// BoundPipeline: the full-precision conservative bound.
//
// The engine's skip decisions are licensed by two claims (proof in
// core/bound_pipeline.h):
//   1. per span, the score upper is the exact maximum of the span's
//      non-NaN answers (the bar lower the exact minimum of its non-NaN
//      thresholds), or NaN when the span opens with a NaN — so a span
//      holding an element whose computed test fires is never pruned, and
//   2. bound decisions never touch a draw — so engine output is
//      bit-identical to the streaming Process() loop at every dispatch
//      level, for both noise kinds.
// This file attacks both with adversarial value sets: subnormals,
// near-threshold ties, max-magnitude deltas, infinities and NaN.

#include "core/bound_pipeline.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vecmath.h"
#include "core/batch_runner.h"
#include "core/response.h"
#include "core/svt.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Adversarial value pools. `Boundary` values are spliced into otherwise
// random vectors so every span mixes regimes.
std::vector<double> BoundaryValues(double center) {
  return {
      center,                                  // exact tie
      std::nextafter(center, -kInf),           // one ulp under
      std::nextafter(center, kInf),            // one ulp over
      center - 1e-300,                         // tiny delta
      5e-324,                                  // smallest subnormal
      -5e-324,
      1e-308,                                  // near DBL_MIN
      0.0,
      -0.0,
      std::numeric_limits<double>::max(),      // max-magnitude deltas
      -std::numeric_limits<double>::max(),
      1e15,                                    // big integers
      -1e15,
  };
}

std::vector<double> AdversarialVector(size_t n, double center, double spread,
                                      uint64_t seed, bool with_inf,
                                      bool with_nan) {
  std::vector<double> v(n);
  Rng gen(seed);
  for (double& x : v) x = center + (gen.NextDouble() - 0.5) * spread;
  const std::vector<double> boundary = BoundaryValues(center);
  for (size_t i = 0; i < n; i += 37) {
    v[i] = boundary[(i / 37) % boundary.size()];
  }
  if (with_inf && n >= 200) {
    v[n / 2] = kInf;
    v[n / 2 + 1] = -kInf;
  }
  if (with_nan && n >= 100) v[n / 3] = kNaN;
  return v;
}

// Exact span extrema computed scalar-style, skipping NaN — what the
// pipeline's span bounds must equal on spans that do not open with NaN.
double ExactMaxSkipNaN(std::span<const double> v) {
  double m = -kInf;
  for (double x : v) {
    if (!std::isnan(x)) m = std::max(m, x);
  }
  return m;
}

double ExactMinSkipNaN(std::span<const double> v) {
  double m = kInf;
  for (double x : v) {
    if (!std::isnan(x)) m = std::min(m, x);
  }
  return m;
}

// The largest ν a span's minimum magnitude word yields on the side that
// can fire (Laplace with a positive sign word, or exponential noise): the
// noise of the span's most fire-prone element.
double LargestNu(double nu_scale, uint64_t w_min) {
  return nu_scale * vec::NegLogUnitPositive(w_min);
}

TEST(BoundPipelineTest, SpanBoundsAreExactAndNeverPruneAFiringSpan) {
  // On NaN-free adversarial spans (subnormals, ties, ±DBL_MAX, ±inf) the
  // span upper is the exact maximum and the bar lower the exact minimum,
  // at every dispatch level; and for bars placed at, just under and just
  // over each element's computed sum a + ν, a span holding an element
  // whose computed test fires is never pruned — common (SpanCanFire,
  // ChunkCanFire) and per-query (SpanCanFirePerQuery).
  ScopedDispatchLevel restore;
  constexpr size_t kSpan = BatchRunner::kBoundSpan;
  const size_t n = BatchRunner::kChunkSize;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (double spread : {1.0, 1e-12, 1e8, 1e300}) {
      const std::vector<double> a =
          AdversarialVector(n, -3.0, spread, seed, /*with_inf=*/true,
                            /*with_nan=*/false);
      const std::vector<double> t =
          AdversarialVector(n, 0.25, spread, seed + 100, true, false);
      Rng words(seed);
      std::vector<uint64_t> span_min(n / kSpan);
      for (uint64_t& w : span_min) {
        const uint64_t r = words.NextUint64();
        w = r >> (r % 48);  // magnitudes from tiny |ν| to ~35 ν scales
      }
      span_min[seed] = 0;  // the largest |ν| any draw can produce
      const double nu_scale = 0.5;
      for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
        if (!vec::SetDispatchLevel(level)) continue;
        const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                                " seed=" + std::to_string(seed) +
                                " spread=" + std::to_string(spread);
        BatchRunStats stats;
        BoundPipeline common(nu_scale, kSpan, &stats);
        common.BeginChunk(a.data(), nullptr, n);
        common.SetNoiseMinima(span_min.data());
        BoundPipeline per_query(nu_scale, kSpan, &stats);
        per_query.BeginChunk(a.data(), t.data(), n);
        per_query.SetSpanNoiseMinima(span_min.data());
        ASSERT_EQ(common.num_spans(), n / kSpan);
        EXPECT_EQ(common.ChunkScoreUpper(), ExactMaxSkipNaN(a)) << ctx;
        for (size_t j = 0; j < common.num_spans(); ++j) {
          const std::span<const double> as(a.data() + j * kSpan, kSpan);
          const std::span<const double> ts(t.data() + j * kSpan, kSpan);
          ASSERT_EQ(common.SpanScoreUpper(j), ExactMaxSkipNaN(as)) << ctx;
          ASSERT_EQ(common.SubrangeScoreUpper(j * kSpan + 1, kSpan - 1),
                    ExactMaxSkipNaN(as.subspan(1)))
              << ctx;
          const double nu = LargestNu(nu_scale, span_min[j]);
          for (size_t i = 0; i < kSpan; ++i) {
            const double sum = as[i] + nu;
            for (double bar : {sum, std::nextafter(sum, -kInf),
                               std::nextafter(sum, kInf)}) {
              if (!(sum >= bar)) continue;  // this element does not fire
              ASSERT_TRUE(common.SpanCanFire(j, bar))
                  << ctx << " span " << j << " i=" << i << " bar=" << bar;
              ASSERT_TRUE(common.ChunkCanFire(bar)) << ctx;
              ASSERT_TRUE(common.ChunkCanFireAnyNoise(bar)) << ctx;
            }
            // Per-query: ρ placed so this element's computed test sits at
            // or near its tie.
            const double rho0 = sum - ts[i];
            for (double rho : {rho0, std::nextafter(rho0, -kInf),
                               std::nextafter(rho0, kInf)}) {
              if (!(sum >= ts[i] + rho)) continue;
              ASSERT_TRUE(per_query.SpanCanFirePerQuery(j, rho))
                  << ctx << " span " << j << " i=" << i << " rho=" << rho;
            }
          }
        }
      }
    }
  }
}

TEST(BoundPipelineTest, NaNSpanBoundsStaySound) {
  // A span that opens with NaN gets a NaN bound (it fails every prune
  // test, and the chunk upper inherits it); NaN anywhere else is skipped
  // and the bound is the exact extremum of the span's other elements.
  ScopedDispatchLevel restore;
  constexpr size_t kSpan = BatchRunner::kBoundSpan;
  const size_t n = 4 * kSpan;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    std::vector<double> a =
        AdversarialVector(n, -3.0, 1.0, 9, /*with_inf=*/false,
                          /*with_nan=*/true);
    std::vector<double> t = AdversarialVector(n, 0.25, 1.0, 10, false, true);
    a[5] = a[9] = kNaN;          // span 0: behind earlier lanes
    a[2 * kSpan] = kNaN;         // span 2 opens with NaN
    a[2 * kSpan + 1] = 1e6;      // and holds the chunk's largest answer
    t[kSpan + 3] = t[kSpan + 7] = kNaN;
    t[3 * kSpan] = kNaN;         // span 3 opens with NaN
    BatchRunStats stats;
    BoundPipeline pipe(1.0, kSpan, &stats);
    pipe.BeginChunk(a.data(), t.data(), n);
    const std::vector<uint64_t> span_min(n / kSpan, uint64_t{1} << 60);
    pipe.SetSpanNoiseMinima(span_min.data());
    for (size_t j = 0; j < pipe.num_spans(); ++j) {
      const std::span<const double> as(a.data() + j * kSpan, kSpan);
      if (std::isnan(as[0])) {
        EXPECT_TRUE(std::isnan(pipe.SpanScoreUpper(j))) << ctx << " " << j;
      } else {
        EXPECT_EQ(pipe.SpanScoreUpper(j), ExactMaxSkipNaN(as))
            << ctx << " " << j;
      }
    }
    EXPECT_TRUE(std::isnan(pipe.ChunkScoreUpper())) << ctx;
    EXPECT_EQ(pipe.ChunkSkipWord(0.0), vec::kMegaNeverSkipWord) << ctx;
    // No ρ prunes a span whose bound is NaN.
    EXPECT_TRUE(pipe.SpanCanFirePerQuery(2, -1e300)) << ctx;
    EXPECT_TRUE(pipe.SpanCanFirePerQuery(3, 1e300)) << ctx;
    EXPECT_EQ(pipe.SpanSkipWordPerQuery(3, 1e300), vec::kMegaNeverSkipWord)
        << ctx;
    // Span 1's NaN bars are skipped: its bar lower is a real minimum, so
    // a far-above ρ still lets the far-below answers' span be pruned.
    EXPECT_EQ(
        ExactMinSkipNaN({t.data() + kSpan, kSpan}),
        vec::MinBlock({t.data() + kSpan, kSpan}))
        << ctx;
    EXPECT_FALSE(pipe.SpanCanFirePerQuery(1, 1e300)) << ctx;
  }
}

// --- engine equivalence ----------------------------------------------------

void ExpectSameResponses(const std::vector<Response>& got,
                         const std::vector<Response>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].outcome, want[i].outcome) << context << " i=" << i;
    if (got[i].outcome == Outcome::kAboveValue) {
      ASSERT_EQ(got[i].value, want[i].value) << context << " i=" << i;
    }
  }
}

std::vector<double> NearThresholdAnswers(size_t n, double nu_scale,
                                         uint64_t seed) {
  std::vector<double> answers(n);
  Rng gen(seed);
  for (double& a : answers) {
    a = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
  }
  // Boundary splices: exact bar ties and one-ulp deltas at 0.0.
  for (size_t i = 50; i < n; i += 511) {
    answers[i] = 0.0;
    if (i + 1 < n) answers[i + 1] = std::nextafter(0.0, -1.0);
  }
  return answers;
}

SvtOptions NearThresholdOptions(NoiseKind nu_kind) {
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;
  o.monotonic = true;
  o.nu_kind = nu_kind;
  if (nu_kind == NoiseKind::kExponential) o.rho_kind = nu_kind;
  return o;
}

struct EngineRun {
  std::vector<Response> responses;
  BatchRunStats stats;
};

// Runs `answers` against a common bar (thresholds null) or per-query bars
// through the batch engine, or, when `streaming`, through the Process()
// loop the engine must reproduce.
EngineRun RunEngine(const SvtOptions& o, const std::vector<double>& answers,
                    const std::vector<double>* thresholds, bool streaming,
                    uint64_t seed) {
  Rng rng(seed);
  auto mech = SparseVector::Create(o, &rng).value();
  EngineRun r;
  if (streaming) {
    for (size_t i = 0; i < answers.size() && !mech->exhausted(); ++i) {
      r.responses.push_back(mech->Process(
          answers[i], thresholds != nullptr ? (*thresholds)[i] : 0.0));
    }
  } else if (thresholds != nullptr) {
    mech->RunAppend(answers, *thresholds, &r.responses);
  } else {
    mech->RunAppend(answers, 0.0, &r.responses);
  }
  r.stats = mech->batch_stats();
  return r;
}

void ExpectSameTierCounters(const BatchRunStats& a, const BatchRunStats& b,
                            const std::string& context) {
  EXPECT_EQ(a.tier1_chunks_skipped, b.tier1_chunks_skipped) << context;
  EXPECT_EQ(a.tier1_chunks_jumped, b.tier1_chunks_jumped) << context;
  EXPECT_EQ(a.tier2_chunks_scanned, b.tier2_chunks_scanned) << context;
  EXPECT_EQ(a.tier2_spans_skipped, b.tier2_spans_skipped) << context;
  EXPECT_EQ(a.tier2_fused_segments, b.tier2_fused_segments) << context;
  EXPECT_EQ(a.bound_bytes_touched, b.bound_bytes_touched) << context;
  EXPECT_EQ(a.mega_words_skipped_q, b.mega_words_skipped_q) << context;
}

TEST(BoundPipelineEngineTest, CommonThresholdBoundMatchesStreaming) {
  // Near-threshold answers with exact bar ties and one-ulp deltas: the
  // bound prunes spans, yet the engine's output is bit-identical to the
  // streaming loop at every dispatch level, for both noise kinds, and all
  // counters are dispatch-independent.
  ScopedDispatchLevel restore_level;
  const size_t n = 3 * BatchRunner::kChunkSize + 321;

  for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    const SvtOptions o = NearThresholdOptions(nu_kind);
    Rng probe(21);
    const double nu_scale =
        SparseVector::Create(o, &probe).value()->query_noise_scale();
    const std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 99);

    std::optional<BatchRunStats> first;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx =
          std::string(nu_kind == NoiseKind::kLaplace ? "lap" : "exp") +
          " level=" + vec::DispatchLevelName(level);
      const EngineRun batch = RunEngine(o, answers, nullptr, false, 21);
      const EngineRun stream = RunEngine(o, answers, nullptr, true, 21);
      ExpectSameResponses(batch.responses, stream.responses, ctx);
      EXPECT_GT(batch.stats.tier2_spans_skipped, 0) << ctx;
      // One 8-byte read per answer: every chunk's bound pass, once.
      EXPECT_EQ(batch.stats.bound_bytes_touched,
                static_cast<int64_t>(n * sizeof(double)))
          << ctx;
      if (!first.has_value()) {
        first = batch.stats;
      } else {
        ExpectSameTierCounters(batch.stats, *first, ctx);
      }
    }
  }
}

TEST(BoundPipelineEngineTest, PerQueryBoundMatchesStreaming) {
  // The per-query span bound (answer-max against bar-min): bit-identical
  // to the streaming loop across dispatch levels and noise kinds, with
  // dispatch-independent counters — and the bound must actually prune
  // (tier2_spans_skipped > 0) on a workload with far-below stretches.
  ScopedDispatchLevel restore_level;
  const size_t n = 2 * BatchRunner::kChunkSize + 57;

  for (NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    const SvtOptions o = NearThresholdOptions(nu_kind);
    Rng probe(55);
    const double nu_scale =
        SparseVector::Create(o, &probe).value()->query_noise_scale();
    std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 31);
    std::vector<double> thresholds(n);
    Rng gen(77);
    for (size_t i = 0; i < n; ++i) {
      thresholds[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    // Far-below stretches: spans the per-query bound should discharge.
    for (size_t i = BatchRunner::kChunkSize / 2;
         i < BatchRunner::kChunkSize; ++i) {
      answers[i] = -50.0 * nu_scale;
    }
    // Exact tie at a chunk boundary.
    thresholds[BatchRunner::kChunkSize] = answers[BatchRunner::kChunkSize];

    std::optional<BatchRunStats> first;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx =
          std::string(nu_kind == NoiseKind::kLaplace ? "lap" : "exp") +
          " level=" + vec::DispatchLevelName(level) + " per-query";
      const EngineRun batch = RunEngine(o, answers, &thresholds, false, 4);
      const EngineRun stream = RunEngine(o, answers, &thresholds, true, 4);
      ExpectSameResponses(batch.responses, stream.responses, ctx);
      EXPECT_GT(batch.stats.tier2_spans_skipped, 0) << ctx;
      // 8 bytes per answer and per bar.
      EXPECT_EQ(batch.stats.bound_bytes_touched,
                static_cast<int64_t>(2 * n * sizeof(double)))
          << ctx;
      if (!first.has_value()) {
        first = batch.stats;
      } else {
        ExpectSameTierCounters(batch.stats, *first, ctx);
      }
    }
  }
}

}  // namespace
}  // namespace svt
