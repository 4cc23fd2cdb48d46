// BoundPipeline: the ONE conservative "can this chunk/span possibly
// fire?" bound implementation behind the batch engine. Both execution
// paths — common-threshold and per-query-threshold — route their skip
// decisions through this class; they differ only in how they *scan* spans
// the pipeline could not discharge (core/batch_runner.cc). Before this refactor the bound chain existed in
// four divergent copies (the tier-1 log-free chunk bound, the per-128-span
// hierarchical bound, the megakernel generate-and-bound pass, and the
// per-query path that had none).
//
// The pipeline holds one full-precision bound per chunk: per kBoundSpan
// span, vec::MaxBlock over the answers (and, per-query, vec::MinBlock
// over the thresholds), with the chunk bound folded from the span bounds.
// Spans it cannot discharge go to the exact scan in batch_runner: the
// megakernel sample-and-scan, which computes the streaming positive test.
//
// Conservativeness proof:
//
//   The computed positive test a path can fire is
//       fl(a_i + nu_i) >= bar         (common: bar = fl(T + rho))
//       fl(a_i + nu_i) >= fl(t_i + rho)   (per-query)
//   with every fl(·) a correctly-rounded IEEE add, which is MONOTONE
//   non-decreasing in each operand. The pipeline skips a span only when
//       fl(up + NB) < fl(dn + rho)    (common: the rhs is bar itself)
//   where up >= a_i for every non-NaN a_i in the span (MaxBlock), dn <=
//   t_i for every non-NaN t_i (MinBlock), and NB is
//   the padded noise bound nu_scale * (-Log(u(w_min))) * kBoundSlack with
//   w_min the span's minimum magnitude word: u is monotone in the word
//   and -log anti-monotone, so NB >= nu_scale * (-Log(u(w_i))) >= nu_i
//   for every variate in the span on the side that can fire (Laplace:
//   nu_i <= |nu_i| <= NB; exponential: 0 <= nu_i <= NB exactly —
//   kBoundSlack absorbs the log kernel's sub-ulp wiggle, see
//   batch_runner's original argument, now below kBoundSlack in the .cc).
//   Chaining monotonicity:
//       fl(a_i + nu_i) <= fl(up + NB) < fl(dn + rho) <= fl(t_i + rho)
//   so no element of a pruned span can fire its computed test — at any
//   dispatch level (each fl(·) and the Log kernel are bit-identical
//   across levels).
//
//   NaN: nothing upstream rejects NaN answers or thresholds (RunAppend
//   takes raw spans), so the chain must hold with them. MaxBlock/MinBlock
//   skip a NaN element unless it is the first of the range, which makes
//   the bound NaN (vecmath.h). Either way the bound stays sound: a NaN-free
//   bound is the maximum (minimum) of the span's non-NaN elements, so it
//   bounds every element that can fire; a NaN bound fails every prune
//   test (each comparison with NaN is false, so the span survives) and
//   makes vec::MegaSkipWordThreshold return kMegaNeverSkipWord; and an
//   element with a NaN answer or threshold never fires its own test. The
//   chunk bound propagates a NaN from any span, since a span whose bound
//   is NaN has told nothing about its other elements.
//
//   Hence pruning is sound, outputs are bit-identical to the bound-free
//   scan, and — the reductions being exact — tier counters are
//   dispatch-independent. This argument sits alongside the megakernel
//   skip-word soundness argument (vec::MegaSkipWordThreshold), which
//   consumes this class's score uppers: any up >= max a_i satisfies its
//   contract.
//
// Word-free tier-1 (ChunkCanFireAnyNoise): NB(0) >= NB(w_min) for every
// possible chunk, so the test fl(up + NB(0)) < bar discharges only chunks
// the word-reading tier-1 test ChunkCanFire also discharges. Word 0 maps
// to u = 2^-53, the smallest value ToUnitDoublePositive takes; every
// other word maps to u = 2^-53 (same value) or to u >= 2^-52, where the
// exact -ln u is at least ln 2 below 53 ln 2 — a gap no few-ulp Log error
// can close — so -Log(u(0)) >= -Log(u(w)), and the multiplies by
// nu_scale > 0 and kBoundSlack are monotone. Then fl(up + NB(w_min)) <=
// fl(up + NB(0)) < bar by the monotone rounded add, with the same `up`
// on both sides. The engine therefore emits a chunk this test discharges
// exactly as before (all ⊥, the same counters) and only settles the
// chunk's n · words-per-variate ν words by a Rng::Discard instead of
// generating them: responses, every counter, and the ν substream position
// stay bit-identical. Only the cost changes.

#ifndef SPARSEVEC_CORE_BOUND_PIPELINE_H_
#define SPARSEVEC_CORE_BOUND_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/svt.h"

namespace svt {

class BoundPipeline {
 public:
  /// Spans per chunk ceiling (kChunkSize / kBoundSpan in batch_runner.h;
  /// static so the per-chunk plan needs no allocation).
  static constexpr size_t kMaxSpans = 16;

  /// One pipeline per Run call.
  BoundPipeline(double nu_scale, size_t span_elems, BatchRunStats* stats);

  /// Builds the chunk's score-upper (and, per-query, bar-lower) plan for
  /// answers[0, n). `thresholds` is null for common-threshold runs.
  /// Charges the bytes read to bound_bytes_touched.
  void BeginChunk(const double* answers, const double* thresholds, size_t n);

  size_t num_spans() const { return nspans_; }

  /// Installs the chunk's per-span minimum magnitude words (from
  /// vec::MegaFillMinSpans or a fused fill-min-scan pass) and derives the padded chunk noise bound; per-span
  /// bounds are derived lazily on first span query so a chunk the tier-1
  /// test discharges pays exactly one log. Call after BeginChunk, before
  /// any *CanFire.
  void SetNoiseMinima(const std::uint64_t* span_min);

  /// Per-query form: installs the chunk's per-span minima with eager ν
  /// bounds — there is no chunk-level test to feed.
  void SetSpanNoiseMinima(const std::uint64_t* span_min);

  /// Score upper bounds for skip-word derivation
  /// (vec::MegaSkipWordThreshold needs any value >= the range's max).
  double ChunkScoreUpper() const { return chunk_upper_; }
  double SpanScoreUpper(size_t j) const { return span_upper_[j]; }
  /// Upper bound over an arbitrary chunk subrange [s, s+m) — resume heads
  /// after positives are not span-aligned. Not charged to
  /// bound_bytes_touched (heads are positive-frequency rare).
  double SubrangeScoreUpper(size_t s, size_t m) const;

  /// Megakernel skip words, derived inside the pipeline so every scan
  /// feeds the same answer-max / bar pairs into
  /// vec::MegaSkipWordThreshold. Valid after
  /// BeginChunk; they need no noise minima.
  std::uint64_t ChunkSkipWord(double bar) const;
  std::uint64_t SpanSkipWord(size_t j, double bar) const;
  /// Per-query form: the span's bar-min folded with ρ. fl(dn + ρ) is a
  /// lower bound on every computed fl(t_i + ρ) in the span (monotone
  /// rounded add), so a word the threshold discharges at this bar cannot
  /// fire any per-query test in the span — and, since fl(dn + ρ) is
  /// non-decreasing in ρ, a skip word derived at the chunk-entry ρ
  /// stays sound for every later resampled ρ' >= ρ.
  std::uint64_t SpanSkipWordPerQuery(size_t j, double rho) const;

  /// Tier-1: false when the whole chunk provably cannot fire under the
  /// common bar. Pure — the caller counts tier1_chunks_skipped.
  bool ChunkCanFire(double bar) const;

  /// Word-free tier-1: ChunkCanFire evaluated as if the chunk's minimum
  /// magnitude word were 0 — the largest |ν| any draw can produce — so it
  /// needs no noise minima and its chunk's words need never be generated.
  /// False implies ChunkCanFire(bar) is false for every possible set of
  /// minima (proof above). The worst-case bound costs one Log, paid on the
  /// first call and cached for the rest of the run. Valid after
  /// BeginChunk.
  bool ChunkCanFireAnyNoise(double bar);

  /// Tier-2 span tests. False means provably no element fires; these
  /// count tier2_spans_skipped per CALL, i.e. per span visit — revisits
  /// across resume walks recount, exactly as the pre-refactor walks did.
  bool SpanCanFire(size_t j, double bar);
  bool SpanCanFirePerQuery(size_t j, double rho);

 private:
  double NuBound(std::uint64_t w_min) const;
  void EnsureSpanNuBounds();

  const double nu_scale_;
  const size_t span_elems_;
  BatchRunStats* const stats_;

  const double* a_ = nullptr;
  const double* t_ = nullptr;
  size_t n_ = 0;
  size_t nspans_ = 0;
  bool span_nu_ready_ = false;
  double chunk_upper_ = 0.0;
  double chunk_nu_bound_ = 0.0;
  std::optional<double> worst_nu_bound_;  // NuBound(0), on first use
  std::uint64_t span_min_[kMaxSpans];
  double span_upper_[kMaxSpans];
  double span_bar_lower_[kMaxSpans];
  double span_nu_bound_[kMaxSpans];
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_BOUND_PIPELINE_H_
