#include "core/batch_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/distributions.h"
#include "common/vecmath.h"
#include "core/bound_pipeline.h"

namespace svt {

namespace {

static_assert(Response{}.outcome == Outcome::kBelow,
              "value-initialized Response must be ⊥: the batch engine emits "
              "⊥ runs via zero-initializing resize");

static_assert(BatchRunner::kChunkSize / BatchRunner::kBoundSpan <=
                  BoundPipeline::kMaxSpans,
              "BoundPipeline's static span plan must cover a full chunk");

// Streaming-identical single draw of a role's noise kind (the batch slow
// path at positives must consume the base stream exactly as Process()
// would — core/svt.h contract step 3).
double SampleNoise(Rng& rng, NoiseKind kind, double scale) {
  switch (kind) {
    case NoiseKind::kLaplace:
      return SampleLaplace(rng, scale);
    case NoiseKind::kExponential:
      return SampleExponential(rng, scale);
  }
  SVT_CHECK(false) << "unknown NoiseKind";
  return 0.0;
}

// Raw 64-bit words one ν variate consumes — the distribution-traits knob
// that threads the noise axis through the megakernels' word stride, the
// owed-word count of jumped chunks, and checkpoint-cursor rebuilds. Laplace: 2
// (magnitude word + sign word). Exponential: 1 (one-sided, no sign word).
size_t WordsPerVariate(NoiseKind kind) {
  return kind == NoiseKind::kExponential ? 1 : 2;
}

}  // namespace

BatchKernelMode ActiveBatchKernelMode() { return BatchKernelMode::kMegakernel; }

BatchRunner::BatchRunner(const VariantSpec& spec, Rng* base_rng,
                         SvtRunState* state)
    : spec_(spec), base_rng_(base_rng), state_(state) {
  SVT_CHECK(base_rng_ != nullptr);
  SVT_CHECK(state_ != nullptr);
}

// Builds the positive Response for `answer` whose comparison noise was
// `nu_j`, updating counters, cutoff, and (for Alg. 2) ρ — in the exact
// order of the streaming Process() slow path.
Response BatchRunner::MakePositiveResponse(double answer, double nu_j) {
  ++state_->processed;
  ++state_->positives;
  if (spec_.cutoff.has_value() && state_->positives >= *spec_.cutoff) {
    state_->exhausted = true;
  }
  if (spec_.resample_rho_after_positive) {
    state_->rho =
        SampleNoise(*base_rng_, spec_.rho_kind, spec_.rho_resample_scale);
  }
  if (spec_.output_query_value_on_positive) {
    return Response::AboveValue(answer + nu_j);
  }
  if (spec_.numeric_scale > 0.0) {
    return Response::AboveValue(answer +
                                SampleLaplace(*base_rng_, spec_.numeric_scale));
  }
  return Response::Above();
}

// Scans one span (all pointers span-local, res pre-zeroed to ⊥) and writes
// positive responses in place. Returns the number of span elements
// processed: n unless the cutoff exhausted the run inside the span.
// `find_next(from, rho)` returns the first positive at or after `from`
// under threshold offset rho — index n if none — together with the ν that
// fired it (0.0 for the ν-free scans). The megakernels compute that ν in
// the same register pass as the compare; every path applies the exact
// streaming positive test, including for non-finite answers.
template <typename FindNext>
size_t BatchRunner::ScanChunk(const double* answers, size_t n,
                              FindNext find_next, Response* res) {
  const double rho0 = state_->rho;
  size_t i = 0;
  while (i < n) {
    // Resume under a resampled ρ: whatever find_next does about it —
    // cached-hit revalidation or a checkpoint rescan — counts here, once,
    // so the counter is dispatch-independent.
    if (i > 0 && state_->rho != rho0) ++state_->batch.replay_rederivations;
    const vec::FusedScanHit hit = find_next(i, state_->rho);
    state_->processed += static_cast<int64_t>(hit.index - i);
    if (hit.index == n) return n;

    res[hit.index] = MakePositiveResponse(answers[hit.index], hit.nu);
    i = hit.index + 1;
    if (state_->exhausted) return i;
  }
  return n;
}

size_t BatchRunner::Run(std::span<const double> answers, double threshold,
                        std::vector<Response>* out) {
  const size_t start = out->size();
  if (state_->exhausted || answers.empty()) return 0;
  const size_t total = answers.size();
  // Zero-initializing resize writes the whole output as ⊥ in one memset;
  // only positives are assigned afterwards. Shrunk again on early abort.
  out->resize(start + total);
  Response* const res = out->data() + start;

  const bool has_nu = spec_.nu_scale > 0.0;
  // The single bound implementation: every skip decision below — tier-1
  // chunk test, tier-2 span tests, the megakernels' skip-word inputs —
  // comes out of this pipeline (core/bound_pipeline.h).
  BoundPipeline pipe(spec_.nu_scale, kBoundSpan, &state_->batch);
  const size_t wpv = WordsPerVariate(spec_.nu_kind);
  const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
  // ν words of chunks the word-free tier-1 test discharged, not yet taken
  // from the substream: settled by one Discard before the next chunk that
  // generates words, and before returning.
  uint64_t owed_words = 0;

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    size_t chunk_processed = n;
    if (has_nu) {
      pipe.BeginChunk(a, /*thresholds=*/nullptr, n);
      // Word-free tier 1: a full chunk whose answers cannot reach the bar
      // even under the largest |ν| any draw can produce is all ⊥ whatever
      // its words are, so they are owed instead of generated. Calls
      // shorter than a chunk (the auditor's tiny RunAppends) never ask,
      // so they pay no extra Log.
      if (n == kChunkSize &&
          !pipe.ChunkCanFireAnyNoise(threshold + state_->rho)) {
        state_->processed += static_cast<int64_t>(n);  // res already ⊥
        ++state_->batch.tier1_chunks_skipped;
        ++state_->batch.tier1_chunks_jumped;
        owed_words += wpv * n;
        done += n;
        continue;
      }
      if (owed_words > 0) {
        state_->nu_rng.Discard(owed_words);
        owed_words = 0;
      }
    }
    if (!has_nu) {
      const auto find_next = [a, n, threshold](size_t from, double rho) {
        return vec::FusedScanHit{
            from + vec::FindFirstGe({a + from, n - from}, threshold + rho),
            0.0};
      };
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    } else {
      // Lane-resident path: one generate-bound-and-scan megakernel pass
      // per chunk — the raw ν words are produced, reduced, tested, and
      // discarded without ever touching memory. The
      // fused pass steps the ν substream's four xoshiro lanes in
      // registers and returns the chunk-wide magnitude minimum (the
      // tier-1 input), the tier-2 hierarchy's per-span minima, a
      // BlockRng::State checkpoint at every span entry, and — when the
      // chunk's word threshold can discharge skipping at all — every
      // element whose positive test fires under the chunk-entry bar, in
      // index order. The substream is then restored to the chunk-end
      // position, exactly where a whole-chunk FillUint64 would leave it,
      // positives or not — the streaming loop's position after the
      // chunk's n draws. Batch == streaming and dispatch-independent
      // counters are tested in core_batch_runner_test.cc.
      uint64_t span_min[kChunkSize / kBoundSpan];
      BlockRng::State span_states[kChunkSize / kBoundSpan];

      const double nu_scale = spec_.nu_scale;
      const double bar0 = threshold + state_->rho;
      // Any upper bound on the chunk's answers is a sound skip-word input
      // (vec::MegaSkipWordThreshold contract), so the pipeline's chunk
      // upper feeds it directly.
      const uint64_t chunk_skip = pipe.ChunkSkipWord(bar0);
      // When no sound chunk-wide word threshold exists (some answer is at
      // or above the bar), the fused scan would degenerate into a full
      // per-element transform of draws a hit-dense chunk may never need;
      // generate-and-bound alone plus the checkpoint walk handles that
      // regime better, so the scan only rides along when it is cheap.
      const bool fused_scan = chunk_skip < vec::kMegaNeverSkipWord;
      constexpr size_t kMaxChunkHits = kChunkSize / 16;
      vec::FusedScanHit hits[kMaxChunkHits];
      size_t found = 0;
      uint64_t w_min_unused;
      BlockRng::State end_state = state_->nu_rng.state();
      if (fused_scan) {
        found = exp_nu ? vec::MegaExpFillMinScanSpans(
                             &end_state, nu_scale, {a, n}, bar0, chunk_skip,
                             kBoundSpan, span_min, span_states, hits,
                             kMaxChunkHits, &w_min_unused)
                       : vec::MegaLaplaceFillMinScanSpans(
                             &end_state, 0.0, nu_scale, {a, n}, bar0,
                             chunk_skip, kBoundSpan, span_min, span_states,
                             hits, kMaxChunkHits, &w_min_unused);
      } else {
        vec::MegaFillMinSpans(&end_state, n, wpv, kBoundSpan, span_min,
                              span_states);
      }
      state_->nu_rng.RestoreState(end_state);

      pipe.SetNoiseMinima(span_min);
      if (!pipe.ChunkCanFire(bar0)) {
        // The tier-1 bound dominates every computed positive test, so a
        // skipped chunk cannot have recorded hits.
        SVT_DCHECK(found == 0);
        state_->processed += static_cast<int64_t>(n);  // res already ⊥
        ++state_->batch.tier1_chunks_skipped;
      } else {
        // Tier-2. When the fused pass scanned, the chunk's positives
        // under the chunk-entry bar are already in hand and complete, so
        // as long as the bar has not *dropped* — always for non-resampling
        // variants, and for every upward resample otherwise — a resume
        // only replays the walk's span decisions on the pipeline's cached
        // per-span bounds (one float compare per span, no words touched)
        // and returns the next recorded hit, re-validated against the
        // moved bar with the exact computed test when ρ was resampled.
        // Only when the bar dropped below the chunk-entry bar (a negative
        // resample draw — elements the fused pass rejected could now
        // fire) or the hit record overflowed does the walk fall back to
        // the checkpoint form: a skipped span costs one float compare —
        // its words are never regenerated — and a surviving span
        // re-enters the bounded scan megakernel from its pass-1
        // checkpoint, regenerating its words once, in registers, and
        // transforming only the lockstep groups its word threshold cannot
        // discharge. After a positive the fallback scans the firing
        // span's remainder exactly from the stream cursor the hit left
        // behind, then re-anchors on the pass-1 grid, so no off-grid
        // words are ever re-bounded. The pipeline's ν bounds per span are
        // rho-free, so they are computed once per chunk and survive ρ
        // resampling.
        ++state_->batch.tier2_chunks_scanned;
        BatchRunStats* const stats = &state_->batch;
        const bool cache_complete = fused_scan && found <= kMaxChunkHits;
        BlockRng::State cur;       // fallback stream cursor, at element
        size_t cur_pos = SIZE_MAX; // cur_pos once established
        const auto find_next = [&](size_t from,
                                   double rho) -> vec::FusedScanHit {
          const double bar = threshold + rho;
          if (cache_complete && bar >= bar0) {
            // Cached walk, sound for every bar >= the fused pass's bar0:
            // an unrecorded element either failed its computed test at
            // bar0 (the rounded add is monotone, so it fails at any
            // higher bar too) or was word-skipped under a threshold
            // sound for bar0 and hence for bar; a recorded hit carries
            // the bit-identical ν a rescan would recompute, so testing
            // `a + ν >= bar` here IS the rescan's computed test. The
            // span decisions replay the fallback's on the pipeline's
            // cached bounds (a span holding a surviving hit always
            // passes its bound — the bound chain dominates every
            // computed test — so the counters do not depend on which walk
            // ran).
            const auto next_hit =
                [&](size_t lo, size_t hi) -> const vec::FusedScanHit* {
              for (size_t k = 0; k < found; ++k) {
                if (hits[k].index < lo) continue;
                if (hits[k].index >= hi) break;
                if (bar == bar0 || a[hits[k].index] + hits[k].nu >= bar) {
                  return &hits[k];
                }
              }
              return nullptr;
            };
            size_t s = from;
            if (s % kBoundSpan != 0 && s < n) {
              ++stats->tier2_fused_segments;
              const size_t m = std::min(kBoundSpan - s % kBoundSpan, n - s);
              if (const vec::FusedScanHit* h = next_hit(s, s + m)) return *h;
              s += m;
            }
            while (s < n) {
              const size_t j = s / kBoundSpan;
              const size_t m = std::min(kBoundSpan, n - s);
              if (pipe.SpanCanFire(j, bar)) {
                ++stats->tier2_fused_segments;
                if (const vec::FusedScanHit* h = next_hit(s, s + m)) {
                  return *h;
                }
              }
              s += m;
            }
            return {n, 0.0};
          }
          if (cur_pos != from) {
            // First fallback resume after cached returns (or after an
            // overflowed record): rebuild the stream cursor at `from`
            // from the enclosing span's checkpoint.
            const size_t j = from / kBoundSpan;
            cur = span_states[j];
            const size_t p = from - j * kBoundSpan;
            if (p > 0) {
              uint64_t scratch;
              vec::MegaFillMinSpans(&cur, p, wpv, p, &scratch, nullptr);
            }
            cur_pos = from;
          }
          size_t s = from;
          if (s % kBoundSpan != 0 && s < n) {
            const size_t m = std::min(kBoundSpan - s % kBoundSpan, n - s);
            ++stats->tier2_fused_segments;
            const uint64_t skip_word = vec::MegaSkipWordThreshold(
                pipe.SubrangeScoreUpper(s, m), bar, nu_scale);
            BlockRng::State scan_st = cur;
            const vec::FusedScanHit hit =
                exp_nu ? vec::MegaExpScanSumGeBounded(&scan_st, nu_scale,
                                                      {a + s, m}, bar,
                                                      skip_word)
                       : vec::MegaLaplaceScanSumGeBounded(&scan_st, 0.0,
                                                          nu_scale, {a + s, m},
                                                          bar, skip_word);
            if (hit.index < m) {
              cur = scan_st;  // at element s + hit.index + 1
              cur_pos = s + hit.index + 1;
              return {s + hit.index, hit.nu};
            }
            s += m;
          }
          while (s < n) {
            const size_t j = s / kBoundSpan;
            const size_t m = std::min(kBoundSpan, n - s);
            if (!pipe.SpanCanFire(j, bar)) {
              s += m;
              continue;
            }
            ++stats->tier2_fused_segments;
            // Typically only one or two elements keep a surviving span
            // alive; the bounded scan reuses the span's score upper to
            // skip the log transform for every lockstep group that
            // provably cannot fire — bit-identical to the unbounded scan
            // by the MegaSkipWordThreshold contract.
            const uint64_t skip_word = pipe.SpanSkipWord(j, bar);
            BlockRng::State scan_st = span_states[j];
            const vec::FusedScanHit hit =
                exp_nu ? vec::MegaExpScanSumGeBounded(&scan_st, nu_scale,
                                                      {a + s, m}, bar,
                                                      skip_word)
                       : vec::MegaLaplaceScanSumGeBounded(&scan_st, 0.0,
                                                          nu_scale, {a + s, m},
                                                          bar, skip_word);
            if (hit.index < m) {
              cur = scan_st;  // at element s + hit.index + 1
              cur_pos = s + hit.index + 1;
              return {s + hit.index, hit.nu};
            }
            s += m;
          }
          cur_pos = n;
          return {n, 0.0};
        };
        chunk_processed = ScanChunk(a, n, find_next, res + done);
      }
    }
    if (state_->exhausted) {
      // Only a chunk that generated its words can exhaust the run, and
      // the debt was settled before it.
      const size_t emitted = done + chunk_processed;
      out->resize(start + emitted);
      return emitted;
    }
    done += n;
  }
  if (owed_words > 0) state_->nu_rng.Discard(owed_words);
  return total;
}

size_t BatchRunner::Run(std::span<const double> answers,
                        std::span<const double> thresholds,
                        std::vector<Response>* out) {
  SVT_CHECK(answers.size() == thresholds.size())
      << "answers/thresholds size mismatch: " << answers.size() << " vs "
      << thresholds.size();
  const size_t start = out->size();
  if (state_->exhausted || answers.empty()) return 0;
  const size_t total = answers.size();
  out->resize(start + total);
  Response* const res = out->data() + start;

  const bool has_nu = spec_.nu_scale > 0.0;
  // The per-query bound level: per span, the pipeline holds an upper
  // bound on the answers AND a lower bound on the thresholds, and a span
  // is skipped when fl(score_up + ν_bound) < fl(bar_down + ρ) — the same
  // monotone chain as the common-threshold tiers, pairwise-safe because
  // the bar lower bounds every bar in the span (proof in
  // core/bound_pipeline.h). Before the pipeline this path had no bound at
  // all and scanned every element.
  BoundPipeline pipe(spec_.nu_scale, kBoundSpan, &state_->batch);

  size_t done = 0;
  while (done < total) {
    const size_t n = std::min(kChunkSize, total - done);
    const double* const a = answers.data() + done;
    const double* const t = thresholds.data() + done;
    size_t chunk_processed = n;
    if (!has_nu) {
      // ν-free per-query scan (Alg. 5): no noise words — nothing to fuse;
      // the dispatched pairwise compare-scan applies the exact streaming
      // positive test (each side one rounded add, ordered >=).
      const auto find_next = [a, t, n](size_t from, double rho) {
        return vec::FusedScanHit{
            from + vec::FindFirstGePairwise({a + from, n - from},
                                            {t + from, n - from}, rho),
            0.0};
      };
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    } else {
      // Lane-resident per-query tier-2. The pipeline's span plan (each
      // span's answer-max paired with its bar-min)
      // yields a per-span skip-word *vector* at the chunk-entry ρ —
      // derivable before any words are drawn. When any span's word
      // threshold can discharge at all, the prepass is the fused pairwise
      // generate-bound-and-scan: one pass steps the lanes through the
      // chunk, records the per-span magnitude minima (the pipeline's
      // ν-bound inputs), a checkpoint at every span entry, AND every
      // element whose pairwise positive test fires at the entry ρ —
      // skipping the transform for every word its span's threshold
      // discharges (counted element-granular in mega_words_skipped_q). The
      // substream is then restored to the chunk end: the prepass consumes
      // exactly n·wpv words — the streaming loop's n draws — whatever the
      // walk later skips. When no span has a finite skip word (hit-dense
      // chunk), the fused scan would transform everything for positives a
      // cutoff may never need, so only generate-and-bound runs — mirroring
      // the common arm's fused_scan gate.
      ++state_->batch.tier2_chunks_scanned;
      pipe.BeginChunk(a, t, n);
      const double nu_scale = spec_.nu_scale;
      const size_t wpv = WordsPerVariate(spec_.nu_kind);
      const bool exp_nu = spec_.nu_kind == NoiseKind::kExponential;
      BatchRunStats* const stats = &state_->batch;
      const size_t nspans = (n + kBoundSpan - 1) / kBoundSpan;
      uint64_t span_min[kChunkSize / kBoundSpan];
      BlockRng::State span_states[kChunkSize / kBoundSpan];
      const double rho0 = state_->rho;
      uint64_t skip_words[kChunkSize / kBoundSpan];
      bool any_skip = false;
      for (size_t k = 0; k < nspans; ++k) {
        skip_words[k] = pipe.SpanSkipWordPerQuery(k, rho0);
        any_skip = any_skip || skip_words[k] < vec::kMegaNeverSkipWord;
      }
      constexpr size_t kMaxChunkHits = kChunkSize / 16;
      vec::FusedScanHit hits[kMaxChunkHits];
      size_t found = 0;
      uint64_t skipped = 0;
      BlockRng::State end_state = state_->nu_rng.state();
      if (any_skip) {
        found = exp_nu ? vec::MegaExpFillMinScanSpansPairwise(
                             &end_state, nu_scale, {a, n}, {t, n}, rho0,
                             skip_words, kBoundSpan, span_min, span_states,
                             hits, kMaxChunkHits, &skipped)
                       : vec::MegaLaplaceFillMinScanSpansPairwise(
                             &end_state, 0.0, nu_scale, {a, n}, {t, n}, rho0,
                             skip_words, kBoundSpan, span_min, span_states,
                             hits, kMaxChunkHits, &skipped);
        stats->mega_words_skipped_q += static_cast<int64_t>(skipped);
      } else {
        vec::MegaFillMinSpans(&end_state, n, wpv, kBoundSpan, span_min,
                              span_states);
      }
      state_->nu_rng.RestoreState(end_state);
      pipe.SetSpanNoiseMinima(span_min);
      const bool cache_complete = any_skip && found <= kMaxChunkHits;

      BlockRng::State cur;        // resume cursor, at element cur_pos
      size_t cur_pos = SIZE_MAX;  // once established
      const auto find_next = [&](size_t from,
                                 double rho) -> vec::FusedScanHit {
        if (cache_complete && rho >= rho0) {
          // Cached walk, sound for every ρ >= the prepass's ρ0:
          // fl(t_i + ρ) is monotone in ρ, so an element that failed its
          // computed test at ρ0 fails at ρ, and a span skip word derived
          // against fl(bar_min + ρ0) stays sound (see
          // SpanSkipWordPerQuery); a recorded hit carries the
          // bit-identical ν a rescan would recompute, so re-testing it
          // against fl(t_i + ρ) IS the rescan's computed test. Span
          // decisions replay the fallback's on the pipeline's cached
          // bounds: a span holding a surviving hit always passes its
          // bound (the bound chain dominates every computed test), so the
          // counters do not depend on which walk ran.
          const auto next_hit =
              [&](size_t lo, size_t hi) -> const vec::FusedScanHit* {
            for (size_t k = 0; k < found; ++k) {
              if (hits[k].index < lo) continue;
              if (hits[k].index >= hi) break;
              if (rho == rho0 ||
                  a[hits[k].index] + hits[k].nu >= t[hits[k].index] + rho) {
                return &hits[k];
              }
            }
            return nullptr;
          };
          size_t s = from;
          if (s % kBoundSpan != 0 && s < n) {
            ++stats->tier2_fused_segments;
            const size_t mh = std::min(kBoundSpan - s % kBoundSpan, n - s);
            if (const vec::FusedScanHit* h = next_hit(s, s + mh)) return *h;
            s += mh;
          }
          while (s < n) {
            const size_t j = s / kBoundSpan;
            const size_t mm = std::min(kBoundSpan, n - s);
            if (pipe.SpanCanFirePerQuery(j, rho)) {
              ++stats->tier2_fused_segments;
              if (const vec::FusedScanHit* h = next_hit(s, s + mm)) {
                return *h;
              }
            }
            s += mm;
          }
          return {n, 0.0};
        }
        // Checkpoint fallback: ρ dropped below ρ0 (elements the prepass
        // rejected could now fire), the hit record overflowed, or no span
        // had a finite skip word. Span skip words are re-derived from the
        // pipeline at the *current* ρ per visit, so surviving spans still
        // transform only the lockstep groups their thresholds cannot
        // discharge.
        size_t s = from;
        if (s % kBoundSpan != 0 && s < n) {
          // Off-grid resume after a positive: scan the firing span's
          // remainder exactly from the cursor the hit left behind (heads
          // are never bound-checked), then re-anchor on the prepass grid.
          const size_t mh = std::min(kBoundSpan - s % kBoundSpan, n - s);
          ++stats->tier2_fused_segments;
          if (cur_pos != s) {
            const size_t j = s / kBoundSpan;
            cur = span_states[j];
            const size_t p = s - j * kBoundSpan;
            if (p > 0) {
              uint64_t scratch;
              vec::MegaFillMinSpans(&cur, p, wpv, p, &scratch, nullptr);
            }
            cur_pos = s;
          }
          BlockRng::State scan_st = cur;
          const vec::FusedScanHit hit =
              exp_nu ? vec::MegaExpScanSumGePairwise(
                           &scan_st, nu_scale, {a + s, mh}, {t + s, mh}, rho)
                     : vec::MegaLaplaceScanSumGePairwise(
                           &scan_st, 0.0, nu_scale, {a + s, mh}, {t + s, mh},
                           rho);
          if (hit.index < mh) {
            cur = scan_st;  // at element s + hit.index + 1
            cur_pos = s + hit.index + 1;
            return {s + hit.index, hit.nu};
          }
          s += mh;
        }
        while (s < n) {
          const size_t j = s / kBoundSpan;
          const size_t mm = std::min(kBoundSpan, n - s);
          if (!pipe.SpanCanFirePerQuery(j, rho)) {
            s += mm;
            continue;
          }
          ++stats->tier2_fused_segments;
          const uint64_t skip_word = pipe.SpanSkipWordPerQuery(j, rho);
          BlockRng::State scan_st = span_states[j];
          const vec::FusedScanHit hit =
              exp_nu ? vec::MegaExpScanSumGePairwiseBounded(
                           &scan_st, nu_scale, {a + s, mm}, {t + s, mm}, rho,
                           skip_word)
                     : vec::MegaLaplaceScanSumGePairwiseBounded(
                           &scan_st, 0.0, nu_scale, {a + s, mm}, {t + s, mm},
                           rho, skip_word);
          if (hit.index < mm) {
            cur = scan_st;  // at element s + hit.index + 1
            cur_pos = s + hit.index + 1;
            return {s + hit.index, hit.nu};
          }
          s += mm;
        }
        cur_pos = n;
        return {n, 0.0};
      };
      // The prepass already left the substream at the chunk end — nothing
      // to advance, even on a cutoff exit mid-chunk.
      chunk_processed = ScanChunk(a, n, find_next, res + done);
    }
    if (state_->exhausted) {
      const size_t emitted = done + chunk_processed;
      out->resize(start + emitted);
      return emitted;
    }
    done += n;
  }
  return total;
}

}  // namespace svt
