// Batch/streaming equivalence: under the draw-order contract pinned on
// SpecDrivenSvt (core/svt.h), Run()/RunAppend() must emit bit-for-bit the
// Response sequence of a scalar Process() loop with the same seed — for
// every variant's noise structure, at sizes that straddle the engine's
// chunking, through positives, cutoff aborts, numeric outputs and Reset
// cycles. This is the test that licenses every batch-path optimization.

#include "core/batch_runner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vecmath.h"
#include "core/budget.h"
#include "core/response.h"
#include "core/svt.h"
#include "core/svt_variants.h"
#include "core/variant_spec.h"
#include "dispatch_test_util.h"

namespace svt {
namespace {

// Builds an answer stream whose positives are sprinkled at irregular
// positions (including exactly at chunk boundaries) on a far-below
// baseline, so both the tier-1 all-below shortcut and the slow path get
// exercised within one run.
std::vector<double> MixedAnswers(size_t n) {
  std::vector<double> answers(n, -50.0);
  for (size_t i = 0; i < n; i += 97) answers[i] = 10.0;   // clear positives
  for (size_t i = 31; i < n; i += 211) answers[i] = 0.1;  // borderline
  if (n > BatchRunner::kChunkSize) {
    answers[BatchRunner::kChunkSize - 1] = 10.0;
    answers[BatchRunner::kChunkSize] = 10.0;
  }
  return answers;
}

// Responses must agree exactly, including numeric payloads bit for bit.
void ExpectSameResponses(const std::vector<Response>& batch,
                         const std::vector<Response>& stream,
                         const std::string& context) {
  ASSERT_EQ(batch.size(), stream.size()) << context;
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].outcome, stream[i].outcome) << context << " i=" << i;
    if (batch[i].outcome == Outcome::kAboveValue) {
      ASSERT_EQ(batch[i].value, stream[i].value) << context << " i=" << i;
    }
  }
}

// Runs mechanism `a` through the batch path and `b` (same seed) through a
// manual streaming loop, over several Reset cycles, and demands identical
// output plus identical counters.
void CheckEquivalence(SvtMechanism* batch_mech, SvtMechanism* stream_mech,
                      const std::vector<double>& answers, double threshold,
                      const std::string& context) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::vector<Response> batch = batch_mech->Run(answers, threshold);
    std::vector<Response> stream;
    for (double a : answers) {
      if (stream_mech->exhausted()) break;
      stream.push_back(stream_mech->Process(a, threshold));
    }
    ExpectSameResponses(batch, stream,
                        context + " cycle=" + std::to_string(cycle));
    EXPECT_EQ(batch_mech->positives_emitted(),
              stream_mech->positives_emitted())
        << context;
    EXPECT_EQ(batch_mech->queries_processed(),
              stream_mech->queries_processed())
        << context;
    EXPECT_EQ(batch_mech->exhausted(), stream_mech->exhausted()) << context;
    batch_mech->Reset();
    stream_mech->Reset();
  }
}

class VariantEquivalence : public ::testing::TestWithParam<VariantId> {};

TEST_P(VariantEquivalence, BatchMatchesStreamingAcrossChunks) {
  const VariantId id = GetParam();
  // 3 full chunks plus an odd tail; cutoff high enough to survive most of
  // the stream but low enough to abort some cycles mid-run.
  const std::vector<double> answers =
      MixedAnswers(3 * BatchRunner::kChunkSize + 123);
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng_batch(seed), rng_stream(seed);
    auto batch = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_batch).value();
    auto stream = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_stream).value();
    CheckEquivalence(batch.get(), stream.get(), answers, 0.0,
                     std::string(VariantIdToString(id)) + " seed=" +
                         std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantEquivalence,
    ::testing::Values(VariantId::kAlg1, VariantId::kAlg2, VariantId::kAlg3,
                      VariantId::kAlg4, VariantId::kAlg5, VariantId::kAlg6,
                      VariantId::kGptt, VariantId::kStandard,
                      VariantId::kExpNoise, VariantId::kRevisited));

TEST_P(VariantEquivalence, BatchOutputIdenticalAcrossDispatchLevels) {
  // Scalar vs SIMD dispatch for every variant's noise structure: same
  // seed, same batch, bit-identical responses. Skips the SIMD half where
  // no SIMD level is compiled in / supported.
  const VariantId id = GetParam();
  ScopedDispatchLevel restore;
  const std::vector<double> answers =
      MixedAnswers(2 * BatchRunner::kChunkSize + 77);

  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_scalar(41);
  auto scalar_mech = MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_scalar)
                         .value();
  const std::vector<Response> scalar_out = scalar_mech->Run(answers, 0.0);

  for (vec::DispatchLevel level :
       {vec::DispatchLevel::kAvx2, vec::DispatchLevel::kAvx512}) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_simd(41);
    auto simd_mech =
        MakeVariantMechanism(id, 1.0, 1.0, 40, &rng_simd).value();
    const std::vector<Response> simd_out = simd_mech->Run(answers, 0.0);
    ExpectSameResponses(simd_out, scalar_out,
                        std::string(VariantIdToString(id)) + " dispatch " +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(simd_mech->positives_emitted(),
              scalar_mech->positives_emitted());
    EXPECT_EQ(simd_mech->queries_processed(),
              scalar_mech->queries_processed());
  }
}

TEST(BatchRunnerTest, NumericOutputEpsilon3Equivalence) {
  // Alg. 7 with ε₃ > 0: numeric answers draw from the base stream at each
  // positive — the interleaving the substream contract exists to protect.
  SvtOptions o;
  o.epsilon = 2.0;
  o.cutoff = 25;
  o.numeric_output_fraction = 0.3;
  const std::vector<double> answers = MixedAnswers(5000);
  Rng rng_batch(11), rng_stream(11);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();
  CheckEquivalence(batch.get(), stream.get(), answers, 0.0, "eps3");
}

TEST(BatchRunnerTest, PerQueryThresholdEquivalence) {
  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  const std::vector<double> answers = MixedAnswers(n);
  std::vector<double> thresholds(n);
  for (size_t i = 0; i < n; ++i) {
    thresholds[i] = (i % 5 == 0) ? -1.0 : 0.5;
  }
  for (uint64_t seed : {4u, 5u}) {
    Rng rng_batch(seed), rng_stream(seed);
    SvtOptions o;
    o.epsilon = 1.0;
    o.cutoff = 60;
    auto batch = SparseVector::Create(o, &rng_batch).value();
    auto stream = SparseVector::Create(o, &rng_stream).value();
    for (int cycle = 0; cycle < 2; ++cycle) {
      const std::vector<Response> b = batch->Run(answers, thresholds);
      std::vector<Response> s;
      for (size_t i = 0; i < n; ++i) {
        if (stream->exhausted()) break;
        s.push_back(stream->Process(answers[i], thresholds[i]));
      }
      ExpectSameResponses(b, s, "per-query seed=" + std::to_string(seed));
      batch->Reset();
      stream->Reset();
    }
  }
}

TEST(BatchRunnerTest, CutoffTruncatesExactly) {
  Rng rng(6);
  SvtOptions o;
  o.epsilon = 100.0;  // tiny noise: the first `cutoff` answers all fire
  o.cutoff = 2;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(50, 1e9);
  const std::vector<Response> rs = mech->Run(answers, 0.0);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].is_positive());
  EXPECT_TRUE(rs[1].is_positive());
  EXPECT_TRUE(mech->exhausted());
  // An exhausted mechanism appends nothing.
  EXPECT_TRUE(mech->Run(answers, 0.0).empty());
}

TEST(BatchRunnerTest, RunAppendReusesBuffer) {
  Rng rng(7);
  SvtOptions o;
  o.epsilon = 1.0;
  o.cutoff = 1000;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(100, -50.0);
  std::vector<Response> buffer;
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 100u);
  // Appending keeps prior content in place.
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 200u);
  buffer.clear();
  EXPECT_EQ(mech->RunAppend(answers, 0.0, &buffer), 100u);
  EXPECT_EQ(buffer.size(), 100u);
}

TEST(BatchRunnerTest, EmptyBatchIsANoOp) {
  Rng rng(8);
  SvtOptions o;
  auto mech = SparseVector::Create(o, &rng).value();
  EXPECT_TRUE(mech->Run(std::vector<double>{}, 0.0).empty());
  EXPECT_EQ(mech->queries_processed(), 0);
  // The RNG position is untouched: a subsequent run matches a fresh
  // same-seed mechanism that never saw the empty batch.
  Rng rng2(8);
  auto mech2 = SparseVector::Create(o, &rng2).value();
  const std::vector<double> answers = MixedAnswers(100);
  ExpectSameResponses(mech->Run(answers, 0.0), mech2->Run(answers, 0.0),
                      "empty-batch");
}

TEST(BatchRunnerTest, MixedStreamingAndBatchStaysAligned) {
  // Feeding the first k queries through Process() and the rest through
  // Run() must equal the all-streaming sequence: the batch engine picks up
  // the ν substream exactly where streaming left it.
  const std::vector<double> answers = MixedAnswers(3000);
  Rng rng_mixed(9), rng_stream(9);
  SvtOptions o;
  o.epsilon = 1.0;
  o.cutoff = 100;
  auto mixed = SparseVector::Create(o, &rng_mixed).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const size_t split = 123;
  std::vector<Response> mixed_out;
  for (size_t i = 0; i < split && !mixed->exhausted(); ++i) {
    mixed_out.push_back(mixed->Process(answers[i], 0.0));
  }
  if (!mixed->exhausted()) {
    mixed->RunAppend(
        std::span<const double>(answers).subspan(split), 0.0, &mixed_out);
  }

  std::vector<Response> stream_out;
  for (double a : answers) {
    if (stream->exhausted()) break;
    stream_out.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(mixed_out, stream_out, "mixed");
}

TEST(BatchRunnerTest, AllBelowFastPathCountsProcessed) {
  Rng rng(10);
  SvtOptions o;
  o.epsilon = 0.5;
  o.cutoff = 3;
  auto mech = SparseVector::Create(o, &rng).value();
  const std::vector<double> answers(4096, -1e9);
  const std::vector<Response> rs = mech->Run(answers, 0.0);
  EXPECT_EQ(rs.size(), 4096u);
  EXPECT_EQ(mech->queries_processed(), 4096);
  EXPECT_EQ(mech->positives_emitted(), 0);
  for (const Response& r : rs) ASSERT_FALSE(r.is_positive());
  // Far-below answers are exactly what the tier-1 bound proves ⊥: both
  // chunks skip, nothing reaches tier-2.
  EXPECT_EQ(mech->batch_stats().tier1_chunks_skipped, 2);
  EXPECT_EQ(mech->batch_stats().tier2_chunks_scanned, 0);
}

// Builds a near-threshold stream: every answer within a few ν scales of
// the threshold, so no chunk can be proven all-below (the tier-1 bound on
// 2048 draws is ~7.6 ν scales) while positives stay rare — the regime
// where Lyu-Su-Li's variants spend their noise draws.
std::vector<double> NearThresholdAnswers(size_t n, double nu_scale,
                                         uint64_t seed) {
  std::vector<double> answers(n);
  Rng gen(seed);
  for (double& a : answers) {
    a = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
  }
  return answers;
}

TEST(BatchRunnerTest, NearThresholdWorkloadExercisesTier2) {
  // Queries clustered at ρ±ν scale: tier-2 must run for every chunk (the
  // skip counter proves the workload actually hits the transform path) and
  // stay bitwise-equal to streaming.
  const size_t n = 4 * BatchRunner::kChunkSize + 321;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;
  o.monotonic = true;
  Rng rng_probe(21);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();
  const std::vector<double> answers = NearThresholdAnswers(n, nu_scale, 99);

  Rng rng_batch(21), rng_stream(21);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const std::vector<Response> b = batch->Run(answers, 0.0);
  std::vector<Response> s;
  for (double a : answers) {
    if (stream->exhausted()) break;
    s.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(b, s, "near-threshold");

  // Every chunk materialized its ν block; none was skipped.
  EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
  EXPECT_EQ(batch->batch_stats().tier2_chunks_scanned, 5);
  // Positives occur (the workload is near, not under, the threshold) but
  // stay rare — this is a ⊥-dominated tier-2 stream, not a cutoff test.
  EXPECT_GT(batch->positives_emitted(), 0);
  EXPECT_LT(batch->positives_emitted(), static_cast<int>(n / 100));

  // Reset clears the tier counters with the rest of the run state.
  batch->Reset();
  EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
  EXPECT_EQ(batch->batch_stats().tier2_chunks_scanned, 0);
}

TEST(BatchRunnerTest, BatchOutputIndependentOfDispatchLevel) {
  // The vecmath kernels are bit-identical across dispatch levels, so the
  // whole mechanism — responses, counters, tier decisions — must be too.
  // On hosts without AVX2 this degenerates to scalar-vs-scalar.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 50;
  o.monotonic = true;
  Rng rng_probe(33);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();
  std::vector<double> answers =
      NearThresholdAnswers(3 * BatchRunner::kChunkSize, nu_scale, 7);
  // Splice in far-below stretches so tier-1 skips on some chunks too.
  for (size_t i = 0; i < BatchRunner::kChunkSize; ++i) {
    answers[BatchRunner::kChunkSize + i] = -1e9;
  }

  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_scalar(5);
  auto scalar_mech = SparseVector::Create(o, &rng_scalar).value();
  const std::vector<Response> scalar_out = scalar_mech->Run(answers, 0.0);
  const auto scalar_stats = scalar_mech->batch_stats();

  for (vec::DispatchLevel level :
       {vec::DispatchLevel::kAvx2, vec::DispatchLevel::kAvx512}) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_simd(5);
    auto simd_mech = SparseVector::Create(o, &rng_simd).value();
    const std::vector<Response> simd_out = simd_mech->Run(answers, 0.0);
    ExpectSameResponses(simd_out, scalar_out,
                        std::string("dispatch ") +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(simd_mech->batch_stats().tier1_chunks_skipped,
              scalar_stats.tier1_chunks_skipped);
    EXPECT_EQ(simd_mech->batch_stats().tier1_chunks_jumped,
              scalar_stats.tier1_chunks_jumped);
    EXPECT_EQ(simd_mech->batch_stats().tier2_chunks_scanned,
              scalar_stats.tier2_chunks_scanned);
    EXPECT_EQ(simd_mech->positives_emitted(),
              scalar_mech->positives_emitted());
  }
  EXPECT_GT(scalar_stats.tier1_chunks_skipped, 0);
  EXPECT_GT(scalar_stats.tier2_chunks_scanned, 0);
  // The far-below chunk cannot fire under any draw: jumped, not generated.
  EXPECT_EQ(scalar_stats.tier1_chunks_jumped, 1);
}

TEST(BatchRunnerTest, PerQueryThresholdNearThresholdAcrossDispatchLevels) {
  // The per-query-threshold scan (FindFirst*Pairwise) in its target
  // regime: every answer AND every bar within a few ν scales of zero, odd
  // tail sizes, ties near chunk boundaries. Batch must equal streaming
  // bit for bit at every dispatch level, with and without query noise.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 200;
  o.monotonic = true;
  Rng rng_probe(55);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  for (size_t n : {2 * BatchRunner::kChunkSize + 1,
                   3 * BatchRunner::kChunkSize - 1, size_t{613}}) {
    std::vector<double> answers(n), thresholds(n);
    Rng gen(n);
    for (size_t i = 0; i < n; ++i) {
      answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
      thresholds[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    // A bar pattern that ties exactly at a chunk boundary answer (only
    // where the batch reaches one: n = 613 has no such index).
    if (n > BatchRunner::kChunkSize) {
      thresholds[BatchRunner::kChunkSize] = answers[BatchRunner::kChunkSize];
    }

    // Scalar streaming is the reference for every (level, path) pair.
    ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
    Rng rng_stream(77);
    auto stream = SparseVector::Create(o, &rng_stream).value();
    std::vector<Response> ref;
    for (size_t i = 0; i < n; ++i) {
      if (stream->exhausted()) break;
      ref.push_back(stream->Process(answers[i], thresholds[i]));
    }

    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      Rng rng_batch(77);
      auto batch = SparseVector::Create(o, &rng_batch).value();
      const std::vector<Response> b = batch->Run(answers, thresholds);
      ExpectSameResponses(b, ref,
                          std::string("per-query near-threshold ") +
                              vec::DispatchLevelName(level) +
                              " n=" + std::to_string(n));
      // Per-query chunks always run tier-2 (no tier-1 bound is sound).
      EXPECT_EQ(batch->batch_stats().tier1_chunks_skipped, 0);
      EXPECT_GT(batch->batch_stats().tier2_chunks_scanned, 0);
    }
  }

  // The ν-free per-query path (pure FindFirstGePairwise): Alg. 5
  // (Stoddard) has nu_scale == 0, so the scan compares raw answers to
  // per-query bars.
  const size_t n = BatchRunner::kChunkSize + 13;
  std::vector<double> answers(n, -1.0), thresholds(n);
  Rng gen(3);
  for (size_t i = 0; i < n; ++i) {
    thresholds[i] = gen.NextDouble() - 0.97;  // bars straddle the answers
  }
  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_stream(91);
  auto stream =
      MakeVariantMechanism(VariantId::kAlg5, 1.0, 1.0, 30, &rng_stream)
          .value();
  std::vector<Response> ref;
  for (size_t i = 0; i < n; ++i) {
    if (stream->exhausted()) break;
    ref.push_back(stream->Process(answers[i], thresholds[i]));
  }
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_batch(91);
    auto batch =
        MakeVariantMechanism(VariantId::kAlg5, 1.0, 1.0, 30, &rng_batch)
            .value();
    ExpectSameResponses(batch->Run(answers, thresholds), ref,
                        std::string("nu-free per-query ") +
                            vec::DispatchLevelName(level));
  }
}

TEST(BatchRunnerTest, InterleavedCommonAndPerQueryRunAppendAcrossLevels) {
  // One mechanism fed alternately through the common-threshold and the
  // per-query-threshold RunAppend overloads — the two fused tier-2 paths
  // share the ν substream, so their interleaving must stay draw-for-draw
  // aligned with one streaming Process() loop, at every dispatch level,
  // including segments with odd tails shorter than a SIMD width.
  ScopedDispatchLevel restore;
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 500;
  o.monotonic = true;
  Rng rng_probe(66);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = 3 * BatchRunner::kChunkSize + 41;
  std::vector<double> answers(n), bars(n);
  Rng gen(13);
  for (size_t i = 0; i < n; ++i) {
    answers[i] = (-6.0 + (gen.NextDouble() - 0.5)) * nu_scale;
    bars[i] = (gen.NextDouble() - 0.5) * nu_scale;
  }
  // Segment lengths cycle through odd tails, sub-SIMD-width pieces, and
  // chunk-crossing blocks; even segments run common-threshold (bar 0 for
  // every element), odd segments the per-query overload.
  const size_t seg_len[] = {7, 613, 3, BatchRunner::kChunkSize + 9, 1, 257};

  // Streaming reference (scalar level).
  ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
  Rng rng_stream(29);
  auto stream = SparseVector::Create(o, &rng_stream).value();
  std::vector<Response> ref;
  {
    size_t i = 0, seg = 0;
    while (i < n && !stream->exhausted()) {
      const size_t len = std::min(seg_len[seg % 6], n - i);
      for (size_t k = 0; k < len && !stream->exhausted(); ++k) {
        const double bar = (seg % 2 == 0) ? 0.0 : bars[i + k];
        ref.push_back(stream->Process(answers[i + k], bar));
      }
      i += len;
      ++seg;
    }
  }

  std::optional<BatchRunStats> scalar_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    Rng rng_batch(29);
    auto batch = SparseVector::Create(o, &rng_batch).value();
    std::vector<Response> got;
    size_t i = 0, seg = 0;
    while (i < n && !batch->exhausted()) {
      const size_t len = std::min(seg_len[seg % 6], n - i);
      const std::span<const double> a{answers.data() + i, len};
      if (seg % 2 == 0) {
        batch->RunAppend(a, 0.0, &got);
      } else {
        batch->RunAppend(a, {bars.data() + i, len}, &got);
      }
      i += len;
      ++seg;
    }
    ExpectSameResponses(got, ref,
                        std::string("interleaved ") +
                            vec::DispatchLevelName(level));
    EXPECT_EQ(batch->positives_emitted(), stream->positives_emitted());
    EXPECT_EQ(batch->queries_processed(), stream->queries_processed());

    // The tier-2 paths must be observable: both overloads ran tier-2, and
    // the counters — like the responses — are dispatch-level-independent.
    const BatchRunStats& st = batch->batch_stats();
    EXPECT_GT(st.tier2_chunks_scanned, 0) << vec::DispatchLevelName(level);
    EXPECT_GT(st.tier2_fused_segments, 0) << vec::DispatchLevelName(level);
    if (!scalar_stats.has_value()) {
      scalar_stats = st;
    } else {
      EXPECT_EQ(st.tier1_chunks_skipped, scalar_stats->tier1_chunks_skipped);
      EXPECT_EQ(st.tier1_chunks_jumped, scalar_stats->tier1_chunks_jumped);
      EXPECT_EQ(st.tier2_chunks_scanned, scalar_stats->tier2_chunks_scanned);
      EXPECT_EQ(st.tier2_fused_segments, scalar_stats->tier2_fused_segments);
      EXPECT_EQ(st.tier2_spans_skipped, scalar_stats->tier2_spans_skipped);
    }
  }
}

TEST(BatchRunnerTest, HierarchicalBoundSkipsSpansInsideTier2Chunks) {
  // A chunk with one near-threshold element defeats the whole-chunk bound
  // (the chunk must run tier-2) while every other kBoundSpan-sized span is
  // far below — those spans skip their transform, observably.
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 100;
  o.monotonic = true;
  Rng rng_probe(31);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  const size_t n = BatchRunner::kChunkSize;
  std::vector<double> answers(n, -1e9);
  answers[n - 1] = -0.5 * nu_scale;  // near the bar: no bound can clear it
  Rng rng_batch(31), rng_stream(31);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();

  const std::vector<Response> b = batch->Run(answers, 0.0);
  std::vector<Response> s;
  for (double a : answers) {
    if (stream->exhausted()) break;
    s.push_back(stream->Process(a, 0.0));
  }
  ExpectSameResponses(b, s, "hierarchical-bound");

  const BatchRunStats& st = batch->batch_stats();
  EXPECT_EQ(st.tier1_chunks_skipped, 0);
  EXPECT_EQ(st.tier2_chunks_scanned, 1);
  // All spans except the one holding the near-threshold element skip.
  EXPECT_GE(st.tier2_spans_skipped,
            static_cast<int64_t>(n / BatchRunner::kBoundSpan) - 1);
  EXPECT_GT(st.tier2_fused_segments, 0);
}

// An all-exponential spec with moderate scales, long-running (huge cutoff)
// so tier counters accumulate over many chunks.
VariantSpec AllExponentialSpec() {
  VariantSpec spec;
  spec.name = "exp-nu-batch-test";
  spec.rho_kind = NoiseKind::kExponential;
  spec.rho_scale = 1.0;
  spec.nu_kind = NoiseKind::kExponential;
  spec.nu_scale = 1.0;
  spec.cutoff = 1 << 20;
  return spec;
}

TEST(BatchRunnerTest, ExpNuOneSidedEnvelopeTierBehavior) {
  // The chunk bound under exponential ν is the one-sided envelope
  // b·(-log u_min): ν_i ∈ [0, b·(-log u_min)], one word per variate. This
  // test pins both halves of its contract: far-below chunks skip at tier 1
  // (the envelope is tight enough to prove ⊥), and a near-threshold
  // workload — answers within the envelope of the bar — runs tier 2 and
  // stays bit-identical to streaming (the envelope never skips a chunk
  // that could fire, or streaming would emit a ⊤ the batch path dropped).
  const size_t n = 2 * BatchRunner::kChunkSize;

  {
    // ρ ≥ 0 and ν ≤ envelope: answers at -1e9 are unreachable.
    Rng rng_batch(3), rng_stream(3);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    const std::vector<double> answers(n, -1e9);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu far-below");
    batch.Reset();
    batch.Run(answers, 0.0);
    EXPECT_EQ(batch.batch_stats().tier1_chunks_skipped, 2);
    EXPECT_EQ(batch.batch_stats().tier2_chunks_scanned, 0);
  }

  {
    // Near-threshold on the one-sided axis: answers a few ν scales under
    // the bar (ρ ≥ 0 pushes the bar up, so stay close), where only the
    // upper envelope decides skips. Positives need ν ≥ |a| + ρ (≈ e^-3
    // each), so they occur but stay rare.
    std::vector<double> answers(n);
    Rng gen(99);
    for (double& a : answers) a = -3.0 + (gen.NextDouble() - 0.5);
    Rng rng_batch(5), rng_stream(5);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu near-threshold");
    batch.Reset();
    batch.Run(answers, 0.0);
    EXPECT_EQ(batch.batch_stats().tier1_chunks_skipped, 0);
    EXPECT_EQ(batch.batch_stats().tier2_chunks_scanned, 2);
    EXPECT_GT(batch.positives_emitted(), 0);
  }

  {
    // Hierarchical spans under exponential ν: one near element defeats the
    // chunk bound, every other kBoundSpan span still proves all-⊥ from the
    // span-local envelope and skips its transform.
    std::vector<double> answers(BatchRunner::kChunkSize, -1e9);
    answers[BatchRunner::kChunkSize - 1] = -0.5;
    Rng rng_batch(7), rng_stream(7);
    CustomSvt batch(AllExponentialSpec(), &rng_batch);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    CheckEquivalence(&batch, &stream, answers, 0.0, "exp-nu hierarchical");
    batch.Reset();
    batch.Run(answers, 0.0);
    const BatchRunStats& st = batch.batch_stats();
    EXPECT_EQ(st.tier1_chunks_skipped, 0);
    EXPECT_EQ(st.tier2_chunks_scanned, 1);
    EXPECT_GE(st.tier2_spans_skipped,
              static_cast<int64_t>(BatchRunner::kChunkSize /
                                   BatchRunner::kBoundSpan) -
                  1);
  }

  // Per-query-threshold overload with exponential ν, across dispatch
  // levels: one word per variate through the bounded fills too.
  {
    ScopedDispatchLevel restore;
    const size_t pn = BatchRunner::kChunkSize + 613;
    std::vector<double> answers(pn), bars(pn);
    Rng gen(17);
    for (size_t i = 0; i < pn; ++i) {
      answers[i] = -6.0 + (gen.NextDouble() - 0.5);
      bars[i] = gen.NextDouble() - 0.5;
    }
    ASSERT_TRUE(vec::SetDispatchLevel(vec::DispatchLevel::kScalar));
    Rng rng_stream(23);
    CustomSvt stream(AllExponentialSpec(), &rng_stream);
    std::vector<Response> ref;
    for (size_t i = 0; i < pn; ++i) {
      if (stream.exhausted()) break;
      ref.push_back(stream.Process(answers[i], bars[i]));
    }
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      Rng rng_batch(23);
      CustomSvt batch(AllExponentialSpec(), &rng_batch);
      ExpectSameResponses(batch.Run(answers, bars), ref,
                          std::string("exp-nu per-query ") +
                              vec::DispatchLevelName(level));
    }
  }
}

// --- megakernel engine against the streaming loop -------------------------

// Every BatchRunStats counter must agree between runs that differ only in
// dispatch level.
void ExpectSameStats(const BatchRunStats& a, const BatchRunStats& b,
                     const std::string& ctx) {
  EXPECT_EQ(a.tier1_chunks_skipped, b.tier1_chunks_skipped) << ctx;
  EXPECT_EQ(a.tier1_chunks_jumped, b.tier1_chunks_jumped) << ctx;
  EXPECT_EQ(a.tier2_chunks_scanned, b.tier2_chunks_scanned) << ctx;
  EXPECT_EQ(a.tier2_fused_segments, b.tier2_fused_segments) << ctx;
  EXPECT_EQ(a.tier2_spans_skipped, b.tier2_spans_skipped) << ctx;
  EXPECT_EQ(a.bound_bytes_touched, b.bound_bytes_touched) << ctx;
  EXPECT_EQ(a.mega_words_skipped_q, b.mega_words_skipped_q) << ctx;
  EXPECT_EQ(a.replay_rederivations, b.replay_rederivations) << ctx;
}

void ExpectSameState(const Rng::State& a, const Rng::State& b,
                     const std::string& ctx) {
  EXPECT_EQ(a.phase, b.phase) << ctx;
  EXPECT_EQ(a.words, b.words) << ctx;
}

// One Run() call of a scripted sequence: a common bar, or per-query bars
// when `bars` is set.
struct RunCall {
  const std::vector<double>* answers;
  double threshold = 0.0;
  const std::vector<double>* bars = nullptr;
};

// What a mechanism emitted and where it ended after a scripted sequence.
struct Observed {
  std::vector<std::vector<Response>> runs;
  BatchRunStats stats;
  int positives = 0;
  int64_t processed = 0;
  Rng::State nu_state;
};

// Replays `calls` on `mech` through the batch engine (Run) or through the
// streaming reference, a Process() loop. No sequence here reaches its
// cutoff, so the end ν substream state is specified for both.
Observed Replay(SpecDrivenSvt* mech, const std::vector<RunCall>& calls,
                bool streaming) {
  Observed obs;
  for (const RunCall& c : calls) {
    const std::vector<double>& a = *c.answers;
    if (!streaming) {
      obs.runs.push_back(c.bars != nullptr ? mech->Run(a, *c.bars)
                                           : mech->Run(a, c.threshold));
      continue;
    }
    std::vector<Response> out;
    for (size_t i = 0; i < a.size() && !mech->exhausted(); ++i) {
      out.push_back(
          mech->Process(a[i], c.bars != nullptr ? (*c.bars)[i] : c.threshold));
    }
    obs.runs.push_back(std::move(out));
  }
  obs.stats = mech->batch_stats();
  obs.positives = mech->positives_emitted();
  obs.processed = mech->queries_processed();
  obs.nu_state = mech->nu_stream_state();
  return obs;
}

// Runs `calls` on two same-seed mechanisms from `make` — batch and
// streaming — and demands identical responses, positives, queries
// processed and end ν substream state. Returns the batch side.
template <typename MakeMech>
Observed ExpectBatchMatchesStreaming(MakeMech make, uint64_t seed,
                                     const std::vector<RunCall>& calls,
                                     const std::string& ctx) {
  Rng rng_batch(seed), rng_stream(seed);
  const std::unique_ptr<SpecDrivenSvt> batch_mech = make(&rng_batch);
  const std::unique_ptr<SpecDrivenSvt> stream_mech = make(&rng_stream);
  const Observed batch = Replay(batch_mech.get(), calls, /*streaming=*/false);
  const Observed stream = Replay(stream_mech.get(), calls, /*streaming=*/true);
  for (size_t r = 0; r < calls.size(); ++r) {
    ExpectSameResponses(batch.runs[r], stream.runs[r],
                        ctx + " run " + std::to_string(r));
  }
  EXPECT_EQ(batch.positives, stream.positives) << ctx;
  EXPECT_EQ(batch.processed, stream.processed) << ctx;
  ExpectSameState(batch.nu_state, stream.nu_state, ctx + " end nu state");
  return batch;
}

// The Laplace-ν SparseVector (at `epsilon`) or the all-exponential spec,
// optionally redrawing ρ after every positive.
std::unique_ptr<SpecDrivenSvt> MakeSvt(NoiseKind nu_kind, Rng* rng,
                                       bool resample, double epsilon = 0.5,
                                       int cutoff = 1 << 20) {
  if (nu_kind == NoiseKind::kExponential) {
    VariantSpec spec = AllExponentialSpec();
    spec.cutoff = cutoff;
    if (resample) {
      spec.resample_rho_after_positive = true;
      spec.rho_resample_scale = 1.0;
    }
    return std::make_unique<CustomSvt>(spec, rng);
  }
  SvtOptions o;
  o.epsilon = epsilon;
  o.cutoff = cutoff;
  o.resample_threshold_noise = resample;
  return SparseVector::Create(o, rng).value();
}

TEST(BatchRunnerTest, MegakernelMatchesStreamingExactly) {
  // Responses, run counters and the end ν substream position must equal
  // the streaming loop's — for Laplace and exponential ν, common and
  // per-query thresholds, near-threshold (tier-2 + positives + resumes)
  // and far-below (tier-1) chunks, at every dispatch level — and every
  // batch statistic must be identical across levels. The stream positions
  // are pinned by the back-to-back runs: any divergence in words consumed
  // by run 1 would shift every draw of run 2.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 123;
  std::vector<double> near(n), bars(n);
  Rng gen(2718);
  for (size_t i = 0; i < n; ++i) {
    // Near-threshold (tier-2, rare positives), with every third bound
    // span far below so the hierarchical span-skip path runs too.
    const bool far_span = (i / BatchRunner::kBoundSpan) % 3 == 0;
    near[i] = far_span ? -1e9 : -3.0 + (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }
  const std::vector<double> far(n, -1e9);  // tier-1 skips every chunk
  // Back-to-back re-run without reseeding (its resumes re-enter
  // mid-chunk), then the per-query arm.
  const std::vector<RunCall> calls = {
      {&near, 0.0}, {&far, 0.0}, {&near, -0.5}, {&near, 0.0, &bars}};

  std::optional<BatchRunStats> first_stats[2];
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    for (bool exp_nu : {false, true}) {
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_nu ? " exp" : " laplace");
      const auto make = [exp_nu](Rng* rng) {
        return MakeSvt(exp_nu ? NoiseKind::kExponential : NoiseKind::kLaplace,
                       rng, /*resample=*/false);
      };
      const Observed got = ExpectBatchMatchesStreaming(make, 77, calls, ctx);
      EXPECT_GT(got.positives, 0) << ctx << " workload must have positives";
      EXPECT_GT(got.stats.tier1_chunks_skipped, 0) << ctx;
      EXPECT_GT(got.stats.tier2_spans_skipped, 0) << ctx;
      // The far run's two full chunks are jumped; its partial tail is not.
      EXPECT_EQ(got.stats.tier1_chunks_jumped, 2) << ctx;
      // The per-query run's far-below spans have finite skip words, so the
      // skip counter moves; ρ never resamples here, so no resume enters
      // under a moved ρ.
      EXPECT_GT(got.stats.mega_words_skipped_q, 0) << ctx;
      EXPECT_EQ(got.stats.replay_rederivations, 0) << ctx;
      std::optional<BatchRunStats>& first = first_stats[exp_nu ? 1 : 0];
      if (!first.has_value()) {
        first = got.stats;
      } else {
        ExpectSameStats(got.stats, *first, ctx);
      }
    }
  }
}

TEST(BatchRunnerTest, MegakernelMatchesStreamingUnderRhoResampling) {
  // ρ resampling moves the bar after every positive, so every resume
  // re-enters under a new bar. This workload is hit-dense (about half the
  // queries fire: the ν scale of a 2^20 cutoff dwarfs the answers), so
  // each chunk overflows the recorded-hit cache and every resume takes
  // the checkpoint walk — including rebuilding its stream cursor at an
  // off-grid position from the enclosing span's pass-1 checkpoint. The
  // cached replay under a moved bar is covered by
  // LaplaceCachedHitReplayUnderMovedBar and WordFreeTier1's exponential-ν
  // case. Responses and stream positions must match
  // streaming exactly at every dispatch level, and the counters must not
  // depend on the level.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> near(n);
  Rng gen(424242);
  for (size_t i = 0; i < n; ++i) {
    near[i] = -2.0 + 2.5 * (gen.NextDouble() - 0.5);
  }
  // The second run resumes from a shifted stream; its chunks re-enter the
  // fallback from fresh cached state.
  const std::vector<RunCall> calls = {{&near, 0.0}, {&near, -0.25}};
  const auto make = [](Rng* rng) {
    return MakeSvt(NoiseKind::kLaplace, rng, /*resample=*/true, 0.75);
  };

  std::optional<BatchRunStats> first_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    const Observed got = ExpectBatchMatchesStreaming(make, 1234, calls, ctx);
    EXPECT_GT(got.positives, 20) << ctx << " workload must resample repeatedly";
    // Every mid-chunk resume here enters under a freshly resampled ρ
    // (counted centrally at the resume site, before the walk decides cache
    // vs. fallback).
    EXPECT_GT(got.stats.replay_rederivations, 0) << ctx;
    // Common-threshold runs never touch the per-query skip counter.
    EXPECT_EQ(got.stats.mega_words_skipped_q, 0) << ctx;
    if (!first_stats.has_value()) {
      first_stats = got.stats;
    } else {
      ExpectSameStats(got.stats, *first_stats, ctx);
    }
  }
}

TEST(BatchRunnerTest, PerQueryResamplingMatchesStreamingAcrossLevels) {
  // RevSVT-style workload: per-query thresholds with ρ resampled after
  // every positive. Each positive moves ρ mid-chunk, so the megakernel
  // arm must either replay its recorded prepass hits against the resampled
  // ρ (upward moves — the span skip words derived at the entry ρ stay
  // sound because fl(bar_min + ρ) is monotone in ρ) or rebuild from span
  // checkpoints through the *bounded* pairwise kernels, re-deriving each
  // span's skip word at the current ρ (downward moves). Every third span
  // sits far below its bars so the skip-word vector actually bites.
  // Responses, positives and the end stream position must match streaming
  // exactly at every dispatch level — and the counters must be identical
  // across levels.
  ScopedDispatchLevel restore_level;

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> answers(n), bars(n);
  Rng gen(31337);
  for (size_t i = 0; i < n; ++i) {
    const bool far_span = (i / BatchRunner::kBoundSpan) % 3 == 0;
    answers[i] = far_span ? -1e9 : -2.0 + 2.5 * (gen.NextDouble() - 0.5);
    bars[i] = gen.NextDouble() - 0.5;
  }
  const std::vector<RunCall> calls = {{&answers, 0.0, &bars}};

  for (bool exp_noise : {false, true}) {
    const auto make = [exp_noise](Rng* rng) {
      return MakeSvt(exp_noise ? NoiseKind::kExponential : NoiseKind::kLaplace,
                     rng, /*resample=*/true, 0.75);
    };
    std::optional<BatchRunStats> first_stats;
    for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
      if (!vec::SetDispatchLevel(level)) continue;
      const std::string ctx = std::string(vec::DispatchLevelName(level)) +
                              (exp_noise ? " exp" : " laplace");
      const Observed got = ExpectBatchMatchesStreaming(make, 4242, calls, ctx);
      EXPECT_GT(got.positives, 10) << ctx << " workload must resample repeatedly";
      EXPECT_GT(got.stats.mega_words_skipped_q, 0) << ctx;
      EXPECT_GT(got.stats.replay_rederivations, 0) << ctx;
      if (!first_stats.has_value()) {
        first_stats = got.stats;
      } else {
        ExpectSameStats(got.stats, *first_stats, ctx);
      }
    }
  }
}

TEST(BatchRunnerTest, ResamplingHitOverflowMatchesStreaming) {
  // The cached-hit replay only engages while a chunk's recorded prepass
  // hits fit the fixed cache (kChunkSize/16 entries). This workload
  // defeats it on purpose: the answers sit close enough under the bar that
  // the recording prepass still runs (the skip word is finite) yet
  // hundreds of elements fire the prepass test, so the recorder overflows
  // and every resampled resume must take the checkpoint-rebuild path
  // instead — in the common arm and, with half the spans far below to keep
  // the skip-word vector live, in the per-query arm. Responses and the
  // stream position must still match streaming exactly at every dispatch
  // level, with level-independent counters.
  ScopedDispatchLevel restore_level;

  const auto make = [](Rng* rng) {
    return MakeSvt(NoiseKind::kLaplace, rng, /*resample=*/true, 0.75);
  };
  Rng rng_probe(8);
  const double nu_scale = make(&rng_probe)->spec().nu_scale;

  const size_t n = 2 * BatchRunner::kChunkSize + 57;
  std::vector<double> dense(n), mixed(n), bars(n);
  Rng gen(515151);
  for (size_t i = 0; i < n; ++i) {
    // Dense: every element ~1.5 ν scales under the common bar — the fire
    // probability (~e^-1.5/2 per element) yields far more than
    // kChunkSize/16 prepass hits per chunk while the chunk skip word
    // stays finite.
    dense[i] = (-1.5 + 0.2 * (gen.NextDouble() - 0.5)) * nu_scale;
    bars[i] = 0.5 * (gen.NextDouble() - 0.5) * nu_scale;
    // Mixed (per-query arm): alternating spans far below (finite skip
    // words keep the recording prepass on) and spans hugging their bars
    // (~e^-0.5/2 fire probability — overflow again).
    const bool far_span = (i / BatchRunner::kBoundSpan) % 2 == 0;
    mixed[i] =
        far_span ? -1e9 : bars[i] + (-0.5 + 0.2 * (gen.NextDouble() - 0.5)) *
                              nu_scale;
  }
  const std::vector<RunCall> calls = {{&dense, 0.0}, {&mixed, 0.0, &bars}};

  std::optional<BatchRunStats> first_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    const Observed got = ExpectBatchMatchesStreaming(make, 9090, calls, ctx);
    // Dense positives: far more than the hit cache can hold per chunk.
    EXPECT_GT(got.positives, static_cast<int>(BatchRunner::kChunkSize / 16))
        << ctx;
    EXPECT_GT(got.stats.replay_rederivations, 0) << ctx;
    EXPECT_GT(got.stats.mega_words_skipped_q, 0) << ctx;
    if (!first_stats.has_value()) {
      first_stats = got.stats;
    } else {
      ExpectSameStats(got.stats, *first_stats, ctx);
    }
  }
}

TEST(BatchRunnerTest, LaplaceCachedHitReplayUnderMovedBar) {
  // The common arm's cached-hit replay under a moved bar, with Laplace ν.
  // A cutoff of 4 keeps the ν scale (4cΔ/ε) at 8 ρ scales, so a resampled
  // ρ moves the bar by a fair fraction of a recorded hit's margin; answers
  // 4 ν scales under the bar record ~20 hits per chunk (far below the
  // 128-entry record) behind a finite chunk skip word. After an upward
  // resample the walk replays the record and must re-test each hit at the
  // new bar: a hit that fired at the chunk-entry bar and fails at the new
  // one must not be emitted. Reset cycles give many such resumes; every
  // run must equal the streaming loop at every dispatch level.
  ScopedDispatchLevel restore_level;
  const auto make = [](Rng* rng) {
    return MakeSvt(NoiseKind::kLaplace, rng, /*resample=*/true, 1.0,
                   /*cutoff=*/4);
  };
  Rng rng_probe(3);
  const double nu_scale = make(&rng_probe)->spec().nu_scale;
  std::vector<double> answers(2 * BatchRunner::kChunkSize);
  Rng gen(60606);
  for (double& a : answers) {
    a = (-4.0 + 0.2 * (gen.NextDouble() - 0.5)) * nu_scale;
  }

  std::optional<BatchRunStats> first_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx(vec::DispatchLevelName(level));
    Rng rng_batch(777), rng_stream(777);
    const auto batch = make(&rng_batch);
    const auto stream = make(&rng_stream);
    BatchRunStats total;
    int positives = 0;
    for (int cycle = 0; cycle < 40; ++cycle) {
      const std::string cctx = ctx + " cycle " + std::to_string(cycle);
      const std::vector<Response> got = batch->Run(answers, 0.0);
      std::vector<Response> want;
      for (size_t i = 0; i < answers.size() && !stream->exhausted(); ++i) {
        want.push_back(stream->Process(answers[i], 0.0));
      }
      ExpectSameResponses(got, want, cctx);
      ASSERT_EQ(batch->positives_emitted(), stream->positives_emitted())
          << cctx;
      positives += batch->positives_emitted();
      const BatchRunStats& st = batch->batch_stats();
      total.tier1_chunks_skipped += st.tier1_chunks_skipped;
      total.tier2_chunks_scanned += st.tier2_chunks_scanned;
      total.tier2_fused_segments += st.tier2_fused_segments;
      total.tier2_spans_skipped += st.tier2_spans_skipped;
      total.bound_bytes_touched += st.bound_bytes_touched;
      total.replay_rederivations += st.replay_rederivations;
      batch->Reset();
      stream->Reset();
    }
    EXPECT_GT(positives, 40) << ctx;
    EXPECT_GT(total.replay_rederivations, 0) << ctx;
    if (!first_stats.has_value()) {
      first_stats = total;
    } else {
      ExpectSameStats(total, *first_stats, ctx);
    }
  }
}

TEST(BatchRunnerTest, NaNInputsNeverHideAPositive) {
  // NaN answers or bars never fire their own test, but they must not make
  // the conservative bound discharge a span or chunk that holds a real
  // positive. Each case has exactly one sure positive next to NaNs: NaNs
  // after it in its SIMD lane (a reduction that lets a NaN reset a lane
  // forgets the earlier extreme), and a NaN opening a later bound span
  // (whose NaN span bound must reach the chunk bound). Batch must equal
  // streaming on both arms at every dispatch level, for both noise kinds.
  ScopedDispatchLevel restore_level;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const size_t n = 2 * BatchRunner::kChunkSize;
  const size_t span1 = BatchRunner::kBoundSpan;

  std::vector<double> lane_nan(n, -1e6);  // NaNs behind the positive
  lane_nan[1] = 1e6;
  lane_nan[5] = lane_nan[9] = kNaN;
  std::vector<double> span_nan(n, -1e6);  // a NaN opening span 1
  span_nan[span1] = kNaN;
  span_nan[span1 + 1] = 1e6;
  std::vector<double> first_nan(n, -1e6);  // a NaN seeding the chunk
  first_nan[0] = kNaN;
  first_nan[1] = 1e6;
  const std::vector<double> far(n, -1e6);
  const std::vector<double> zero_bars(n, 0.0);
  std::vector<double> lane_nan_bars(n, 0.0);  // NaN bars behind a low bar
  lane_nan_bars[1] = -2e6;
  lane_nan_bars[5] = lane_nan_bars[9] = kNaN;
  std::vector<double> span_nan_bars(n, 0.0);
  span_nan_bars[span1] = kNaN;
  span_nan_bars[span1 + 1] = -2e6;

  const struct {
    const char* name;
    RunCall call;
  } cases[] = {
      {"common lane NaN", {&lane_nan, 0.0}},
      {"common span NaN", {&span_nan, 0.0}},
      {"common first NaN", {&first_nan, 0.0}},
      {"per-query answer lane NaN", {&lane_nan, 0.0, &zero_bars}},
      {"per-query answer span NaN", {&span_nan, 0.0, &zero_bars}},
      {"per-query bar lane NaN", {&far, 0.0, &lane_nan_bars}},
      {"per-query bar span NaN", {&far, 0.0, &span_nan_bars}},
  };
  for (const NoiseKind nu_kind : {NoiseKind::kLaplace, NoiseKind::kExponential}) {
    const auto make = [nu_kind](Rng* rng) {
      return MakeSvt(nu_kind, rng, /*resample=*/false, 10.0, /*cutoff=*/5);
    };
    for (const auto& c : cases) {
      for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
        if (!vec::SetDispatchLevel(level)) continue;
        const std::string ctx =
            std::string(c.name) +
            (nu_kind == NoiseKind::kLaplace ? " lap " : " exp ") +
            vec::DispatchLevelName(level);
        const Observed got = ExpectBatchMatchesStreaming(make, 5150, {c.call},
                                                         ctx);
        EXPECT_EQ(got.positives, 1) << ctx;
      }
    }
  }
}

TEST(BatchRunnerTest, TinyAndOddSizedBatchesMatchStreaming) {
  // Engine-level odd-tail regression for the fused paths: batches shorter
  // than one SIMD width, shorter than one bound span, and one past each
  // boundary — common and per-query — must equal streaming exactly.
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 50;
  o.monotonic = true;
  Rng rng_probe(71);
  const double nu_scale =
      SparseVector::Create(o, &rng_probe).value()->query_noise_scale();

  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{9},
                   BatchRunner::kBoundSpan - 1, BatchRunner::kBoundSpan + 1,
                   BatchRunner::kChunkSize + 3}) {
    std::vector<double> answers(n), bars(n);
    Rng gen(n + 1);
    for (size_t i = 0; i < n; ++i) {
      answers[i] = (-2.0 + (gen.NextDouble() - 0.5)) * nu_scale;
      bars[i] = (gen.NextDouble() - 0.5) * nu_scale;
    }
    for (const bool per_query : {false, true}) {
      Rng rng_batch(77), rng_stream(77);
      auto batch = SparseVector::Create(o, &rng_batch).value();
      auto stream = SparseVector::Create(o, &rng_stream).value();
      std::vector<Response> got, ref;
      if (per_query) {
        batch->RunAppend(answers, bars, &got);
      } else {
        batch->RunAppend(answers, 0.0, &got);
      }
      for (size_t i = 0; i < n && !stream->exhausted(); ++i) {
        ref.push_back(
            stream->Process(answers[i], per_query ? bars[i] : 0.0));
      }
      ExpectSameResponses(got, ref,
                          "tiny n=" + std::to_string(n) +
                              (per_query ? " per-query" : " common"));
    }
  }
}

// --- word-free tier 1: chunks jumped without generating their ν words ---

// Answers laid out chunk by chunk, in units of the ν scale:
//   F  far below: no draw can reach the bar, so the chunk is jumped;
//   M  -20 scales: out of reach of the chunk's actual words (word-reading
//      tier 1 skips it) but not of the worst-case draw, so its words are
//      generated — it settles any owed words before it;
//   N  far below except every 97th answer one scale under the bar: tier 2
//      with a few positives, each resampling ρ;
//   H  every answer one scale under the bar: a cutoff exhausts quickly.
// `tail` answers of the last letter's kind follow as a partial chunk.
std::vector<double> ChunkLayout(const std::string& layout, size_t tail,
                                double nu_scale) {
  const auto value = [nu_scale](char kind, size_t i) {
    switch (kind) {
      case 'F':
        return -200.0 * nu_scale;
      case 'M':
        return -20.0 * nu_scale;
      case 'N':
        return (i % 97 == 0 ? -1.0 : -200.0) * nu_scale;
      default:
        return -1.0 * nu_scale;
    }
  };
  std::vector<double> answers;
  for (size_t c = 0; c < layout.size(); ++c) {
    const size_t n = BatchRunner::kChunkSize + (c + 1 == layout.size() ? tail
                                                                       : 0);
    for (size_t i = 0; i < n; ++i) answers.push_back(value(layout[c], i));
  }
  return answers;
}

class WordFreeTier1 : public ::testing::TestWithParam<NoiseKind> {};

TEST_P(WordFreeTier1, JumpedChunksMatchStreaming) {
  // Runs of far-below chunks (jumped: their words are owed and settled by
  // one Discard) alternate with chunks that generate words, across
  // back-to-back runs so a debt left at a run's end would shift the next
  // run's draws. Responses and the ν substream position must equal the
  // streaming loop's after every run; the counters are exact and equal at
  // every dispatch level.
  const NoiseKind nu_kind = GetParam();
  ScopedDispatchLevel restore_level;
  const std::string kind = nu_kind == NoiseKind::kExponential ? "exp" : "lap";

  std::optional<BatchRunStats> first_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx = kind + " " + vec::DispatchLevelName(level);
    Rng rng_batch(2029), rng_stream(2029);
    auto batch = MakeSvt(nu_kind, &rng_batch, /*resample=*/true, 0.5, 1000);
    auto stream = MakeSvt(nu_kind, &rng_stream, /*resample=*/true, 0.5, 1000);
    const double nu = batch->spec().nu_scale;
    // Ends on a partial far chunk (never jumped: shorter than a chunk),
    // then on jumped chunks (settled only when the run returns).
    const std::vector<double> runs[] = {ChunkLayout("FFNFFFMNF", 1000, nu),
                                        ChunkLayout("NFF", 0, nu),
                                        ChunkLayout("FFNFFFMNF", 1000, nu)};
    for (size_t r = 0; r < std::size(runs); ++r) {
      const std::string rctx = ctx + " run " + std::to_string(r);
      const std::vector<Response> got = batch->Run(runs[r], 0.0);
      std::vector<Response> want;
      for (double a : runs[r]) want.push_back(stream->Process(a, 0.0));
      ExpectSameResponses(got, want, rctx);
      ExpectSameState(batch->nu_stream_state(), stream->nu_stream_state(),
                      rctx);
    }
    EXPECT_FALSE(batch->exhausted()) << ctx;
    EXPECT_EQ(batch->positives_emitted(), stream->positives_emitted()) << ctx;
    EXPECT_GT(batch->positives_emitted(), 5) << ctx;
    EXPECT_EQ(batch->queries_processed(), stream->queries_processed()) << ctx;

    const BatchRunStats& st = batch->batch_stats();
    // 14 full F chunks are jumped; the two M chunks and the two partial
    // far tails are skipped from their words; the five N chunks scan.
    EXPECT_EQ(st.tier1_chunks_jumped, 14) << ctx;
    EXPECT_EQ(st.tier1_chunks_skipped, 18) << ctx;
    EXPECT_EQ(st.tier2_chunks_scanned, 5) << ctx;
    EXPECT_GT(st.replay_rederivations, 0) << ctx;
    if (!first_stats.has_value()) {
      first_stats = st;
    } else {
      ExpectSameStats(st, *first_stats, ctx);
    }
  }
}

TEST_P(WordFreeTier1, CutoffInTheFirstChunkAfterAJumpedRun) {
  // The owed words of a jumped run must be settled before the next chunk
  // draws: here that chunk exhausts the cutoff within its first few
  // answers. After a cutoff abort the batch leaves the substream at the
  // end of the exhausting chunk (every chunk that draws consumes all its
  // words), i.e. the streaming position plus the chunk's unread rest.
  const NoiseKind nu_kind = GetParam();
  ScopedDispatchLevel restore_level;
  const std::string kind = nu_kind == NoiseKind::kExponential ? "exp" : "lap";
  const size_t wpv = nu_kind == NoiseKind::kExponential ? 1 : 2;

  std::optional<BatchRunStats> first_stats;
  for (vec::DispatchLevel level : vec::kAllDispatchLevels) {
    if (!vec::SetDispatchLevel(level)) continue;
    const std::string ctx = kind + " " + vec::DispatchLevelName(level);
    Rng rng_batch(88), rng_stream(88);
    auto batch = MakeSvt(nu_kind, &rng_batch, /*resample=*/true, 0.5, 3);
    auto stream = MakeSvt(nu_kind, &rng_stream, /*resample=*/true, 0.5, 3);
    const std::vector<double> answers =
        ChunkLayout("FFFHF", 5, batch->spec().nu_scale);
    const std::vector<Response> got = batch->Run(answers, 0.0);
    std::vector<Response> want;
    for (double a : answers) {
      if (stream->exhausted()) break;
      want.push_back(stream->Process(a, 0.0));
    }
    ExpectSameResponses(got, want, ctx);
    ASSERT_TRUE(batch->exhausted()) << ctx;
    const size_t processed = static_cast<size_t>(stream->queries_processed());
    ASSERT_GT(processed, 3 * BatchRunner::kChunkSize) << ctx;
    ASSERT_LE(processed, 4 * BatchRunner::kChunkSize) << ctx;

    Rng rest(stream->nu_stream_state());
    for (size_t i = processed; i < 4 * BatchRunner::kChunkSize; ++i) {
      for (size_t w = 0; w < wpv; ++w) rest.NextUint64();
    }
    ExpectSameState(batch->nu_stream_state(), rest.state(), ctx);

    const BatchRunStats& st = batch->batch_stats();
    EXPECT_EQ(st.tier1_chunks_jumped, 3) << ctx;
    EXPECT_EQ(st.tier1_chunks_skipped, 3) << ctx;
    EXPECT_EQ(st.tier2_chunks_scanned, 1) << ctx;
    if (!first_stats.has_value()) {
      first_stats = st;
    } else {
      ExpectSameStats(st, *first_stats, ctx);
    }
  }
}

TEST(BatchRunnerTest, BottomDominatedMillionJumpsEveryChunk) {
  // The ⊥-dominated 2^20-query batch of BM_SvtRunBatch: all 512 chunks are
  // jumped, across Reset cycles, and the substream still lands exactly
  // where 2^20 streaming draws put it.
  SvtOptions o;
  o.epsilon = 0.1;
  o.cutoff = 1 << 20;
  o.monotonic = true;
  Rng rng_batch(5), rng_stream(5);
  auto batch = SparseVector::Create(o, &rng_batch).value();
  auto stream = SparseVector::Create(o, &rng_stream).value();
  const std::vector<double> answers(size_t{1} << 20, -1e12);
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::string ctx = "cycle " + std::to_string(cycle);
    std::vector<Response> out;
    ASSERT_EQ(batch->RunAppend(answers, 0.0, &out), answers.size()) << ctx;
    for (double a : answers) stream->Process(a, 0.0);
    EXPECT_EQ(batch->positives_emitted(), stream->positives_emitted()) << ctx;
    ExpectSameState(batch->nu_stream_state(), stream->nu_stream_state(), ctx);
    const BatchRunStats& st = batch->batch_stats();
    EXPECT_EQ(st.tier1_chunks_jumped, 512) << ctx;
    EXPECT_LE(st.tier1_chunks_jumped, st.tier1_chunks_skipped) << ctx;
    batch->Reset();
    stream->Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseKinds, WordFreeTier1,
                         ::testing::Values(NoiseKind::kLaplace,
                                           NoiseKind::kExponential));

}  // namespace
}  // namespace svt
