// Chunked batch execution engine for spec-driven SVT mechanisms.
//
// SvtMechanism::Run's reference implementation pays, per query, a virtual
// dispatch, a Laplace distribution construction, two scalar RNG calls and a
// log() stuck behind them. The experiments (Figs. 2–5) and the audit layer
// push millions of queries through that loop. BatchRunner replaces it with
// a chunked walk (kChunkSize queries per chunk) over vecmath's
// lane-resident megakernels (vec::Mega*), which step the ν substream's four
// lockstep xoshiro lanes inside the scan loop — the raw ν words live only
// in registers, and the generator is checkpointed and restored through
// BlockRng::State:
//
//   * word-free tier 1 (common threshold, full chunks): a chunk whose
//     largest answer cannot cross the noisy threshold even under the
//     largest |ν| any draw can produce (minimum word 0, one log per run) is
//     emitted as ⊥ before any of its words exist. Its words are owed, and
//     each run of such chunks is settled by one Rng::Discard of the ν
//     substream, an O(log n) jump for all but the shortest runs (counted in
//     tier1_chunks_jumped);
//   * otherwise one generate-and-bound pass per chunk (MegaFillMinSpans, or
//     a fill-min-scan form that also records the chunk's positives at the
//     chunk-entry bar whenever a skip word can discharge anything): it
//     yields the per-span minimum magnitude words that bound every |ν| in
//     a span, and a BlockRng::State checkpoint at every span entry;
//   * tier 1 on those minima (common threshold): when even the largest
//     answer provably cannot cross the noisy threshold the chunk is all ⊥
//     without a single log() — the dominant case in ⊥-heavy SVT workloads,
//     where negatives are free;
//   * tier 2, per kBoundSpan span: the same conservative max-|ν| test per
//     span; per-query chunks pair each span's answer upper bound with its
//     *threshold lower bound*, so spans that provably cannot fire under any
//     of their bars skip the scan outright. Surviving spans replay the
//     recorded positives, or — after a downward ρ resample, or when the
//     record overflowed — are regenerated from their checkpoints by the
//     bounded scans, which skip the transform of every lockstep group the
//     span's skip word discharges;
//   * a slow path only at positives, handling the cutoff, Alg. 2's ρ
//     resampling, Alg. 3's q+ν output and ε₃ numeric answers.
//
// Every conservative skip decision above — tier-1 chunk tests, tier-2
// span tests (common and per-query), and the megakernels' skip-word
// inputs — is computed by a single BoundPipeline (core/bound_pipeline.h);
// the runner only decides how surviving spans get scanned.
//
// Which tier each chunk took is counted in SvtRunState::batch (exposed as
// SpecDrivenSvt::batch_stats()) so tests and capacity planning can verify
// a workload actually exercises the tier they target.
//
// Under the draw-order contract documented on SpecDrivenSvt (core/svt.h)
// the emitted Response sequence is bit-for-bit the one the streaming
// Process() loop would produce for the same seed — at every vecmath
// dispatch level, since the kernels are bit-identical across levels.

#ifndef SPARSEVEC_CORE_BATCH_RUNNER_H_
#define SPARSEVEC_CORE_BATCH_RUNNER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/response.h"
#include "core/svt.h"
#include "core/variant_spec.h"

namespace svt {

/// The batch engine's tier-2 kernel family: always the lane-resident
/// megakernels (vec::Mega*). A constant, not a knob.
enum class BatchKernelMode { kMegakernel };

/// Always kMegakernel. Its one caller is perfbench/src/host.cc, which
/// prints it on the benchmark's host line.
BatchKernelMode ActiveBatchKernelMode();

class BatchRunner {
 public:
  /// Queries per chunk: the unit of one generate-and-bound pass, so the
  /// tier-1 bound can reduce over all its words before any transform runs.
  static constexpr size_t kChunkSize = 2048;

  /// Queries per hierarchical tier-2 bound span (common threshold): when
  /// the whole-chunk bound fails, the same conservative max-|ν| test is
  /// re-applied per span this size — over few enough draws that
  /// near-threshold workloads still skip most spans' transforms.
  static constexpr size_t kBoundSpan = 128;

  /// Runs over the state of a live mechanism; all three must outlive the
  /// runner. `state` is mutated exactly as the streaming path would.
  BatchRunner(const VariantSpec& spec, Rng* base_rng, SvtRunState* state);

  /// Appends one Response per processed query to *out, stopping after the
  /// positive that exhausts the cutoff; returns the number appended.
  /// Appends nothing when the mechanism is already exhausted.
  size_t Run(std::span<const double> answers,
             std::span<const double> thresholds, std::vector<Response>* out);

  /// Common-threshold overload (the hot path of the experiments), with the
  /// tier-1 chunk bound enabled.
  size_t Run(std::span<const double> answers, double threshold,
             std::vector<Response>* out);

 private:
  Response MakePositiveResponse(double answer, double nu_j);

  template <typename FindNext>
  size_t ScanChunk(const double* answers, size_t n, FindNext find_next,
                   Response* res);

  const VariantSpec& spec_;
  Rng* base_rng_;
  SvtRunState* state_;
};

}  // namespace svt

#endif  // SPARSEVEC_CORE_BATCH_RUNNER_H_
