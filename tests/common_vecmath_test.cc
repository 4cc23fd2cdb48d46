// The vecmath layer's two contracts:
//
//  1. Accuracy: the polynomial Log kernel tracks libm within a small,
//     documented ULP bound (kMaxUlp below) over dense sweeps and the
//     adversarial inputs the samplers and the batch engine's chunk bound
//     actually produce — subnormals, near-1 arguments, the (0,1] lattice
//     edge values.
//
//  2. Bit-identity across dispatch: every Block kernel emits bitwise the
//     scalar reference lane's outputs at every supported dispatch level.
//     This is the property the batch/streaming equivalence of the SVT
//     engine rests on; it is asserted here against dense random and
//     adversarial inputs, for every kernel in the family.
//
// When no SIMD level is available (non-x86, SVT_DISABLE_AVX2, or an old
// CPU) the cross-dispatch tests reduce to scalar-vs-scalar and still pass.

#include "common/vecmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/distributions.h"
#include "common/rng.h"
#include "dispatch_test_util.h"

namespace svt {
namespace vec {
namespace {

// Measured max over the dense sweeps below is 1 ulp for the log kernel
// (an fdlibm-grade polynomial); 2 leaves headroom for worst-case inputs the
// sweeps miss, and is still far below any statistical relevance for noise
// sampling. Documented in README "Performance".
constexpr int64_t kMaxUlp = 2;

int64_t UlpDiff(double a, double b) {
  if (a == b) return 0;  // covers equal infinities; +0 == -0 on purpose
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<int64_t>::max();
  }
  int64_t ia = std::bit_cast<int64_t>(a);
  int64_t ib = std::bit_cast<int64_t>(b);
  // Map to a monotone integer line so the distance works across zero.
  if (ia < 0) ia = std::numeric_limits<int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<int64_t>::min() - ib;
  return ia > ib ? ia - ib : ib - ia;
}

std::vector<double> LogTestInputs() {
  std::vector<double> xs;
  // Dense geometric sweep across the full normal range.
  for (double x = 1e-300; x < 1e300; x *= 1.001) xs.push_back(x);
  // Near 1, where log loses absolute accuracy: a dense window at the ulp
  // scale (±20k ulps) plus a coarser sweep across ±1e-4.
  double lo = 1.0, hi = 1.0;
  for (int i = 0; i < 20000; ++i) {
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, 2.0);
    xs.push_back(lo);
    xs.push_back(hi);
  }
  for (double x = 0.9999; x < 1.0001; x += 1e-8) xs.push_back(x);
  // The (0,1] lattice the samplers draw from: smallest, largest, and the
  // chunk-bound edge values around them.
  xs.push_back(0x1.0p-53);                       // smallest uniform
  xs.push_back(1.0);                             // largest uniform
  xs.push_back(1.0 - 0x1.0p-53);                 // second-largest
  xs.push_back(2.0 * 0x1.0p-53);                 // second-smallest
  // Subnormals, including the very smallest.
  xs.push_back(5e-324);
  xs.push_back(1e-310);
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(std::numeric_limits<double>::min() / 2);
  // Boundaries of the normal range.
  xs.push_back(std::numeric_limits<double>::min());
  xs.push_back(std::numeric_limits<double>::max());
  // Exact powers of two land on the decomposition seams.
  for (int e = -1074; e <= 1023; e += 37) xs.push_back(std::ldexp(1.0, e));
  return xs;
}

TEST(VecmathLogTest, UlpBoundVsLibmDenseAndAdversarial) {
  int64_t max_ulp = 0;
  double worst = 0.0;
  for (double x : LogTestInputs()) {
    const int64_t u = UlpDiff(Log(x), std::log(x));
    if (u > max_ulp) {
      max_ulp = u;
      worst = x;
    }
  }
  EXPECT_LE(max_ulp, kMaxUlp) << "worst input " << worst;
}

TEST(VecmathLogTest, UlpBoundHoldsAtEveryDispatchLevel) {
  // The cross-dispatch bit-identity tests below transfer the scalar ULP
  // bound to every lane; this asserts it directly against libm per level
  // (scalar, AVX2, AVX-512), so an accuracy regression in a SIMD lane
  // cannot hide behind a matching regression in the reference.
  ScopedDispatchLevel restore;
  const std::vector<double> xs = LogTestInputs();
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(xs.size());
    LogBlock(xs, out);
    int64_t max_ulp = 0;
    double worst = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      const int64_t u = UlpDiff(out[i], std::log(xs[i]));
      if (u > max_ulp) {
        max_ulp = u;
        worst = xs[i];
      }
    }
    EXPECT_LE(max_ulp, kMaxUlp)
        << DispatchLevelName(level) << " worst input " << worst;
  }
}

TEST(VecmathLogTest, SpecialOperands) {
  EXPECT_EQ(Log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Log(-0.0), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(Log(-1.0)));
  EXPECT_TRUE(std::isnan(Log(-std::numeric_limits<double>::infinity())));
  EXPECT_EQ(Log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(Log(std::nan(""))));
  EXPECT_EQ(Log(1.0), 0.0);
}

TEST(VecmathDispatchTest, NamesAndScalarAlwaysSupported) {
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kAvx2), "avx2");
  EXPECT_STREQ(DispatchLevelName(DispatchLevel::kAvx512), "avx512");
  EXPECT_TRUE(DispatchLevelSupported(DispatchLevel::kScalar));
  // The active level is always a supported one.
  EXPECT_TRUE(DispatchLevelSupported(ActiveDispatchLevel()));
  // Requesting an unsupported level fails and leaves the level unchanged.
  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!DispatchLevelSupported(level)) {
      const DispatchLevel before = ActiveDispatchLevel();
      EXPECT_FALSE(SetDispatchLevel(level));
      EXPECT_EQ(ActiveDispatchLevel(), before);
    }
  }
}

TEST(VecmathDispatchTest, ParseDispatchCap) {
  // The SVT_MAX_DISPATCH environment values; unset/empty = no cap, names
  // are case-insensitive.
  EXPECT_EQ(ParseDispatchCap(nullptr), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap(""), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("scalar"), DispatchLevel::kScalar);
  EXPECT_EQ(ParseDispatchCap("0"), DispatchLevel::kScalar);
  EXPECT_EQ(ParseDispatchCap("avx2"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("AVX2"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("1"), DispatchLevel::kAvx2);
  EXPECT_EQ(ParseDispatchCap("avx512"), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("AVX512"), DispatchLevel::kAvx512);
  EXPECT_EQ(ParseDispatchCap("2"), DispatchLevel::kAvx512);
}

TEST(VecmathDispatchDeathTest, UnrecognizedCapAborts) {
  // A typo in SVT_MAX_DISPATCH must fail loudly, not silently uncap the
  // dispatch (which would hollow out a capped CI leg while it reports
  // green).
  EXPECT_DEATH(ParseDispatchCap("avx-2"), "SVT_MAX_DISPATCH");
  EXPECT_DEATH(ParseDispatchCap("bogus"), "SVT_MAX_DISPATCH");
}

void ExpectBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
        << what << " diverges at i=" << i << " (" << a[i] << " vs " << b[i]
        << ")";
  }
}

TEST(VecmathDispatchTest, LogBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  const std::vector<double> xs = LogTestInputs();
  std::vector<double> scalar_ref(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) scalar_ref[i] = Log(xs[i]);

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(xs.size());
    LogBlock(xs, out);
    ExpectBitEqual(out, scalar_ref, DispatchLevelName(level));
    // In-place operation is part of the contract.
    std::vector<double> inplace = xs;
    LogBlock(inplace, inplace);
    ExpectBitEqual(inplace, scalar_ref, "in-place");
  }
}

TEST(VecmathDispatchTest, SamplingKernelsBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  // Raw RNG words, including the lattice edges (all-ones word -> u == 1,
  // whose -log is -0.0 and whose Gumbel output is +inf).
  Rng rng(123);
  std::vector<uint64_t> words(4096);
  rng.FillUint64(words);
  words[17] = ~0ull;
  words[2 * 33] = ~0ull;
  words[0] = 0;

  const size_t n = words.size() / 2;
  std::vector<double> ref1(words.size()), ref2(n), ref_lap(n);
  SetDispatchLevel(DispatchLevel::kScalar);
  NegLogUnitPositiveBlock(words, 1, ref1);
  NegLogUnitPositiveBlock(words, 2, ref2);
  LaplaceTransformBlock(words, 0.25, 1.75, ref_lap);

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out1(words.size()), out2(n), out_lap(n);
    NegLogUnitPositiveBlock(words, 1, out1);
    NegLogUnitPositiveBlock(words, 2, out2);
    LaplaceTransformBlock(words, 0.25, 1.75, out_lap);
    ExpectBitEqual(out1, ref1, "neg-log stride 1");
    ExpectBitEqual(out2, ref2, "neg-log stride 2");
    ExpectBitEqual(out_lap, ref_lap, "laplace transform");
  }

  // The stride-1 kernel on even words must equal the stride-2 kernel.
  std::vector<uint64_t> evens(n);
  for (size_t i = 0; i < n; ++i) evens[i] = words[2 * i];
  std::vector<double> from_evens(n);
  NegLogUnitPositiveBlock(evens, 1, from_evens);
  ExpectBitEqual(from_evens, ref2, "stride 1 on evens vs stride 2");
}

TEST(VecmathDispatchTest, ReductionsAndScansAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(7);
  std::vector<double> a(1000);
  rng.FillDouble(a);

  SetDispatchLevel(DispatchLevel::kScalar);
  const double ref_max = MaxBlock(a);
  const size_t ref_idx = FindFirstGe(a, 2.5);
  const size_t ref_none = FindFirstGe(a, 1e9);

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(MaxBlock(a)),
              std::bit_cast<uint64_t>(ref_max))
        << DispatchLevelName(level);
    EXPECT_EQ(FindFirstGe(a, 2.5), ref_idx);
    EXPECT_EQ(FindFirstGe(a, 1e9), ref_none);
  }
  EXPECT_EQ(ref_none, a.size());

  // Odd (non-multiple-of-the-SIMD-width) sizes exercise the scalar tails.
  for (size_t len : {1u, 3u, 5u, 7u, 9u, 11u, 15u}) {
    const std::span<const double> head(a.data(), len);
    SetDispatchLevel(DispatchLevel::kScalar);
    const double m_scalar = MaxBlock(head);
    const size_t f_scalar = FindFirstGe(head, 0.5);
    for (DispatchLevel level :
         {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
      if (!SetDispatchLevel(level)) continue;
      EXPECT_EQ(MaxBlock(head), m_scalar)
          << DispatchLevelName(level) << " len=" << len;
      EXPECT_EQ(FindFirstGe(head, 0.5), f_scalar)
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathDispatchTest, MinBlockBitIdenticalAcrossLevels) {
  ScopedDispatchLevel restore;
  Rng rng(11);
  std::vector<double> a(1000);
  rng.FillDouble(a);
  // Adversarial splices: signed zeros, subnormals, infinities, max
  // magnitude — the values the bar-lower reduction meets in practice.
  a[0] = -0.0;
  a[1] = 0.0;
  a[13] = 5e-324;
  a[14] = -5e-324;
  a[500] = -std::numeric_limits<double>::max();
  a[501] = std::numeric_limits<double>::infinity();
  a[502] = -std::numeric_limits<double>::infinity();

  SetDispatchLevel(DispatchLevel::kScalar);
  const double ref_min = MinBlock(a);
  EXPECT_EQ(ref_min, -std::numeric_limits<double>::infinity());
  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    EXPECT_EQ(std::bit_cast<uint64_t>(MinBlock(a)),
              std::bit_cast<uint64_t>(ref_min))
        << DispatchLevelName(level);
  }

  // Odd lengths exercise the scalar tails; finite values check the
  // non-sentinel path too.
  std::vector<double> b(64);
  rng.FillDouble(b);
  for (size_t len : {1u, 2u, 3u, 5u, 7u, 9u, 15u, 31u, 33u, 64u}) {
    const std::span<const double> head(b.data(), len);
    SetDispatchLevel(DispatchLevel::kScalar);
    const double m_scalar = MinBlock(head);
    for (DispatchLevel level :
         {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
      if (!SetDispatchLevel(level)) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(MinBlock(head)),
                std::bit_cast<uint64_t>(m_scalar))
          << DispatchLevelName(level) << " len=" << len;
    }
  }
}

TEST(VecmathDispatchTest, NaNReductionsMatchScalarLoopAcrossLevels) {
  // The bound pipeline's NaN argument rests on MaxBlock/MinBlock having the
  // scalar `m = in[0]; m = std::max(m, x)` loop's semantics at every level:
  // a NaN in[0] makes the result NaN, any other NaN is skipped. A SIMD
  // reduction written acc = max(acc, load) instead forgets a lane's earlier
  // extremum at a NaN and returns a "maximum" below a real element.
  ScopedDispatchLevel restore;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng(23);
  std::vector<double> base(1000);
  rng.FillDouble(base);
  base[400] = 7.5;   // the real maximum, after NaNs in its lane
  base[401] = -7.5;  // and the real minimum

  auto scalar_max = [](std::span<const double> s) {
    double m = s[0];
    for (double x : s) m = std::max(m, x);
    return m;
  };
  auto scalar_min = [](std::span<const double> s) {
    double m = s[0];
    for (double x : s) m = std::min(m, x);
    return m;
  };
  auto expect_same = [](double got, double want, const std::string& ctx) {
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << ctx;
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << ctx;
    }
  };

  // NaN positions: the seed element, SIMD-body lanes before and after the
  // extremes, and scalar-tail elements of odd lengths.
  const std::vector<std::vector<size_t>> nan_sets = {
      {0}, {1, 5, 9}, {392, 396, 404, 408}, {3, 999}, {0, 400, 401}};
  for (const std::vector<size_t>& nans : nan_sets) {
    std::vector<double> a = base;
    for (size_t i : nans) a[i] = kNaN;
    for (size_t len : {1u, 2u, 7u, 9u, 17u, 33u, 402u, 1000u}) {
      const std::span<const double> head(a.data(), len);
      const double want_max = scalar_max(head);
      const double want_min = scalar_min(head);
      EXPECT_EQ(std::isnan(want_max), std::isnan(a[0])) << "len=" << len;
      EXPECT_EQ(std::isnan(want_min), std::isnan(a[0])) << "len=" << len;
      for (DispatchLevel level : kAllDispatchLevels) {
        if (!SetDispatchLevel(level)) continue;
        const std::string ctx = std::string(DispatchLevelName(level)) +
                                " len=" + std::to_string(len) +
                                " first nan=" + std::to_string(nans[0]);
        expect_same(MaxBlock(head), want_max, ctx + " max");
        expect_same(MinBlock(head), want_min, ctx + " min");
      }
    }
    // NaN-free seed: the result is the extremum of the non-NaN elements.
    if (!std::isnan(a[0])) {
      EXPECT_EQ(MaxBlock(a), 7.5);
      EXPECT_EQ(MinBlock(a), -7.5);
    }
  }
}

TEST(VecmathDispatchTest, PairwiseScansAcrossLevels) {
  // The per-query-threshold compare-scan: bars vary per element. Checked
  // against a literal transcription of the streaming positive test, at
  // every level, over random bars, near-threshold bars (ties included:
  // bars[i] + rho == a[i] exactly), odd tails, and NaN patterns.
  ScopedDispatchLevel restore;
  Rng rng(99);
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<double> a(n), bars(n);
  rng.FillDouble(a);
  rng.FillDouble(bars);
  const double rho = 0.125;
  // Exact ties: the >= must fire on equality, at any lane position.
  for (size_t i : {size_t{37}, size_t{512}, n - 1}) {
    bars[i] = a[i] - rho;  // bars[i] + rho rounds back to exactly a[i]
  }
  // NaN answers and NaN bars must never match (ordered compare).
  a[101] = std::nan("");
  bars[202] = std::nan("");

  const auto ref_ge = [&](size_t from) {
    size_t j = from;
    while (j < n && !(a[j] >= bars[j] + rho)) ++j;
    return j;
  };

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    // Walk every positive like the batch engine's ScanChunk does.
    size_t from = 0;
    while (from <= n) {
      const size_t expect = ref_ge(from);
      const size_t got =
          from + FindFirstGePairwise({a.data() + from, n - from},
                                     {bars.data() + from, n - from}, rho);
      ASSERT_EQ(got, expect)
          << DispatchLevelName(level) << " from=" << from;
      if (expect >= n) break;
      from = expect + 1;
    }
    // No-match scan returns size().
    EXPECT_EQ(FindFirstGePairwise(a, bars, 1e9), n);
    // Empty input.
    EXPECT_EQ(FindFirstGePairwise({}, {}, rho), 0u);
  }
}

TEST(VecmathExpNoiseTest, NegLogUnitPositiveScalarMatchesBlock) {
  // The scalar form is the single-element contract of the block kernel —
  // this is what makes streaming exponential draws and block transforms
  // draw-for-draw bit-identical.
  Rng rng(4242);
  std::vector<uint64_t> words(257);
  rng.FillUint64(words);
  words[0] = 0;        // largest −log on the lattice
  words[1] = ~0ull;    // u == 1 → −log == -0.0
  ScopedDispatchLevel restore;
  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> block(words.size());
    NegLogUnitPositiveBlock(words, 1, block);
    for (size_t i = 0; i < words.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(NegLogUnitPositive(words[i])),
                std::bit_cast<uint64_t>(block[i]))
          << DispatchLevelName(level) << " i=" << i;
      ASSERT_EQ(
          std::bit_cast<uint64_t>(NegLogUnitPositive(words[i])),
          std::bit_cast<uint64_t>(-Log(Rng::ToUnitDoublePositive(words[i]))))
          << "i=" << i;
    }
  }
}

TEST(VecmathExpNoiseTest, ExponentialTransformUlpBoundVsLibm) {
  // The one-word exponential transform tracks the libm composition
  // b·(−std::log(u)) within the documented kernel bound over a dense random
  // sweep plus the lattice edges.
  Rng rng(17);
  std::vector<uint64_t> words(65536);
  rng.FillUint64(words);
  words[0] = 0;
  words[1] = ~0ull;
  words[2] = 1;
  const double b = 1.75;
  std::vector<double> out(words.size());
  ExponentialTransformBlock(words, b, out);
  int64_t max_ulp = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    const double u = Rng::ToUnitDoublePositive(words[i]);
    max_ulp = std::max(max_ulp, UlpDiff(out[i], b * (-std::log(u))));
  }
  EXPECT_LE(max_ulp, kMaxUlp);
  // One-sided support: every variate is ≥ 0 (u == 1 gives -0.0, which the
  // IEEE product with b keeps as -0.0 — still "not a negative noise").
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i] < 0.0) << "i=" << i;
  }
}

TEST(VecmathExpNoiseTest, TransformBitIdenticalAcrossLevels) {
  // ExponentialTransformBlock is defined as the b·NegLogUnitPositiveBlock
  // composition at stride 1; pin the definition at the scalar level and the
  // bit-identity of every SIMD lane against it.
  ScopedDispatchLevel restore;
  Rng rng(123);
  std::vector<uint64_t> words(4099);  // odd: exercises every lane tail
  rng.FillUint64(words);
  words[17] = ~0ull;
  words[33] = 0;
  const double b = 0.625;

  SetDispatchLevel(DispatchLevel::kScalar);
  std::vector<double> ref(words.size());
  ExponentialTransformBlock(words, b, ref);
  for (size_t i = 0; i < words.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(ref[i]),
              std::bit_cast<uint64_t>(b * NegLogUnitPositive(words[i])))
        << "composition definition diverges at i=" << i;
  }

  for (DispatchLevel level :
       {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    std::vector<double> out(words.size());
    ExponentialTransformBlock(words, b, out);
    ExpectBitEqual(out, ref, DispatchLevelName(level));
  }
}

TEST(VecmathDispatchTest, ScalarKernelMatchesComposedDefinition) {
  // The sampling kernels are *defined* by composition of Log and the
  // lattice map; pin that definition at the scalar level.
  Rng rng(99);
  std::vector<uint64_t> words(64);
  rng.FillUint64(words);
  ScopedDispatchLevel restore;
  SetDispatchLevel(DispatchLevel::kScalar);
  std::vector<double> out(64);
  NegLogUnitPositiveBlock(words, 1, out);
  for (size_t i = 0; i < words.size(); ++i) {
    const double expected = -Log(Rng::ToUnitDoublePositive(words[i]));
    ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
              std::bit_cast<uint64_t>(expected))
        << "i=" << i;
  }
}

// --- Megakernels against their definition --------------------------------

bool StatesEqual(const BlockRng::State& a, const BlockRng::State& b) {
  return a.phase == b.phase && a.words == b.words;
}

// The megakernels' definition (common/vecmath.h): the words a FillUint64
// would produce, through LaplaceTransformBlock (wpv == 2) or
// ExponentialTransformBlock (wpv == 1, no location), then the streaming
// positive test as a scalar loop — a[i] + ν[i] >= bar, or per query
// a[i] + ν[i] >= bars[i] + rho when `bars` is non-null.
FusedScanHit DefinitionScan(std::span<const uint64_t> words, size_t wpv,
                            double mu, double b, const double* a, double bar,
                            const double* bars = nullptr, double rho = 0.0) {
  std::vector<double> nu(words.size() / wpv);
  if (wpv == 2) {
    LaplaceTransformBlock(words, mu, b, nu);
  } else {
    ExponentialTransformBlock(words, b, nu);
  }
  for (size_t i = 0; i < nu.size(); ++i) {
    const bool fires =
        bars == nullptr ? a[i] + nu[i] >= bar : a[i] + nu[i] >= bars[i] + rho;
    if (fires) return {i, nu[i]};
  }
  return {nu.size(), 0.0};
}

// Walks every hit of a megakernel against DefinitionScan over the words a
// FillUint64 from the same origin produces: hit indices, ν payloads bit
// for bit, and — after every single call — the stream position, by
// advancing a shadow Rng with FillUint64 over exactly the words the
// megakernel claims to have consumed and comparing States. This is the
// "in-kernel generation is stream-neutral" contract, including mid-chunk
// positive resume (each loop iteration resumes the same State the
// previous hit left behind). `pre_draws` > 0 enters the kernels at an
// unaligned phase, covering the SIMD lanes' whole-call scalar delegation.
// `def_fn(words, from)` applies DefinitionScan to the suffix at `from`.
template <typename MegaFn, typename DefFn>
void WalkMegaVsDefinition(uint64_t seed, size_t n, size_t wpv,
                          uint32_t pre_draws, MegaFn mega_fn, DefFn def_fn,
                          const std::string& ctx,
                          size_t* hits_out = nullptr) {
  Rng fill_rng(seed), mega_rng(seed), shadow(seed);
  for (uint32_t i = 0; i < pre_draws; ++i) {
    fill_rng.NextUint64();
    mega_rng.NextUint64();
    shadow.NextUint64();
  }
  std::vector<uint64_t> words(wpv * n);
  fill_rng.FillUint64(words);
  BlockRng::State st = mega_rng.state();
  std::vector<uint64_t> scratch;
  size_t hits = 0;
  size_t from = 0;
  while (from <= n) {
    const size_t rem = n - from;
    const FusedScanHit want =
        def_fn(std::span<const uint64_t>{words.data() + wpv * from, wpv * rem},
               from);
    const FusedScanHit got = mega_fn(&st, from);
    ASSERT_EQ(got.index, want.index) << ctx << " from=" << from;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.nu),
              std::bit_cast<uint64_t>(want.nu))
        << ctx << " nu diverges, from=" << from;
    const size_t consumed =
        (want.index < rem ? want.index + 1 : rem) * wpv;
    scratch.resize(consumed);
    shadow.FillUint64(scratch);
    const BlockRng::State expect = shadow.state();
    ASSERT_TRUE(StatesEqual(st, expect))
        << ctx << " stream position diverges after scan from=" << from;
    if (want.index >= rem) break;
    ++hits;
    from += want.index + 1;
  }
  // The full walk consumed exactly the words the definition filled.
  ASSERT_TRUE(StatesEqual(st, fill_rng.state())) << ctx;
  if (hits_out) *hits_out = hits;
}

TEST(VecmathMegaScanTest, MatchesDefinitionAtEveryLevel) {
  // The four scan entry points the batch engine calls, each against its
  // definition. The common-threshold scans exist only in bounded form; at
  // kMegaNeverSkipWord they skip nothing.
  ScopedDispatchLevel restore;
  const size_t n = 1003;  // odd: exercises every lane tail
  std::vector<double> a(n), bars(n);
  Rng setup(555);
  setup.FillDouble(a);
  setup.FillDouble(bars);
  for (size_t i = 0; i < n; ++i) {
    a[i] = (a[i] - 0.5) * 8.0;     // straddle the ν scale
    bars[i] = (bars[i] - 0.5) * 4.0;
  }
  const double mu = 0.25, b = 1.75, rho = 0.125;
  const double bar = mu + b;  // plenty of hits, plenty of gaps
  constexpr uint64_t kAll = kMegaNeverSkipWord;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (uint32_t pre : {0u, 1u, 3u}) {
      const std::string ctx =
          std::string(DispatchLevelName(level)) + " pre=" + std::to_string(pre);
      size_t hits = 0;
      WalkMegaVsDefinition(
          17, n, 2, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaLaplaceScanSumGeBounded(
                st, mu, b, {a.data() + from, n - from}, bar, kAll);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return DefinitionScan(w, 2, mu, b, a.data() + from, bar);
          },
          ctx + " laplace", &hits);
      EXPECT_GT(hits, 2u) << ctx << " workload must contain several hits";
      WalkMegaVsDefinition(
          17, n, 2, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaLaplaceScanSumGePairwise(
                st, mu, b, {a.data() + from, n - from},
                {bars.data() + from, n - from}, rho);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return DefinitionScan(w, 2, mu, b, a.data() + from, 0.0,
                                  bars.data() + from, rho);
          },
          ctx + " laplace-pairwise");
      WalkMegaVsDefinition(
          17, n, 1, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaExpScanSumGeBounded(st, b, {a.data() + from, n - from},
                                           bar, kAll);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return DefinitionScan(w, 1, 0.0, b, a.data() + from, bar);
          },
          ctx + " exp", &hits);
      EXPECT_GT(hits, 2u) << ctx << " workload must contain several hits";
      WalkMegaVsDefinition(
          17, n, 1, pre,
          [&](BlockRng::State* st, size_t from) {
            return MegaExpScanSumGePairwise(st, b, {a.data() + from, n - from},
                                            {bars.data() + from, n - from},
                                            rho);
          },
          [&](std::span<const uint64_t> w, size_t from) {
            return DefinitionScan(w, 1, 0.0, b, a.data() + from, 0.0,
                                  bars.data() + from, rho);
          },
          ctx + " exp-pairwise");
    }
  }
}

TEST(VecmathMegaScanTest, OddTailsEmptySpansAndEdgeBars) {
  // Lengths straddling the AVX2 (4) and AVX-512 (8) group widths, the
  // empty span, a bar no element reaches (pure miss: full-span state
  // advance), a bar every element clears (immediate hit: one-element
  // advance every call), and a moderate bar in between — all walked
  // against the definition at every level.
  ScopedDispatchLevel restore;
  constexpr size_t kMaxLen = 33;
  std::vector<double> a(kMaxLen, 0.0);
  const double mu = 0.0, b = 1.0;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                       size_t{7}, size_t{9}, size_t{11}, size_t{15},
                       size_t{17}, size_t{31}, size_t{33}}) {
      for (double bar : {1e9, -1e9, 0.5}) {
        const std::string ctx = std::string(DispatchLevelName(level)) +
                                " len=" + std::to_string(len) +
                                " bar=" + std::to_string(bar);
        WalkMegaVsDefinition(
            7, len, 2, 0,
            [&](BlockRng::State* st, size_t from) {
              return MegaLaplaceScanSumGeBounded(
                  st, mu, b, {a.data() + from, len - from}, bar,
                  kMegaNeverSkipWord);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return DefinitionScan(w, 2, mu, b, a.data() + from, bar);
            },
            ctx + " laplace");
        WalkMegaVsDefinition(
            7, len, 1, 0,
            [&](BlockRng::State* st, size_t from) {
              return MegaExpScanSumGeBounded(st, b,
                                             {a.data() + from, len - from},
                                             bar, kMegaNeverSkipWord);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return DefinitionScan(w, 1, 0.0, b, a.data() + from, bar);
            },
            ctx + " exp");
      }
    }
  }
}

TEST(VecmathMegaFillMinSpansTest, MatchesFillAndMinAtEveryLevel) {
  // MegaFillMinSpans is defined as FillUint64 + per-span minimum over the
  // magnitude words (every wpv-th word). Check, at every level and for
  // both word widths: every span minimum, the recorded span-entry States
  // (each must equal a shadow Rng advanced to the span's first word), the
  // returned total, and the final stream position — across aligned spans,
  // a short final span, single-span calls, and unaligned entry.
  ScopedDispatchLevel restore;
  std::vector<uint64_t> scratch;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t wpv : {size_t{1}, size_t{2}}) {
      for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{96}, size_t{257}}) {
        for (size_t span : {size_t{8}, size_t{16}, size_t{32}, size_t{512}}) {
          for (uint32_t pre : {0u, 1u}) {
            const std::string ctx =
                std::string(DispatchLevelName(level)) + " wpv=" +
                std::to_string(wpv) + " count=" + std::to_string(count) +
                " span=" + std::to_string(span) + " pre=" +
                std::to_string(pre);
            Rng comp_rng(33), mega_rng(33), shadow(33);
            for (uint32_t i = 0; i < pre; ++i) {
              comp_rng.NextUint64();
              mega_rng.NextUint64();
              shadow.NextUint64();
            }
            std::vector<uint64_t> words(wpv * count);
            comp_rng.FillUint64(words);
            const size_t nspans = (count + span - 1) / span;
            std::vector<uint64_t> smin(nspans + 1, 0xdecafbadull);
            std::vector<BlockRng::State> sstates(nspans + 1);
            BlockRng::State st = mega_rng.state();
            const uint64_t total = MegaFillMinSpans(&st, count, wpv, span,
                                                    smin.data(),
                                                    sstates.data());
            uint64_t want_total = ~0ull;
            for (size_t s = 0; s < nspans; ++s) {
              ASSERT_TRUE(StatesEqual(sstates[s], shadow.state()))
                  << ctx << " span-entry state, span " << s;
              const size_t lo = s * span;
              const size_t hi = std::min(count, lo + span);
              scratch.resize(wpv * (hi - lo));
              shadow.FillUint64(scratch);
              uint64_t m = ~0ull;
              for (size_t i = lo; i < hi; ++i) {
                m = std::min(m, words[wpv * i]);
              }
              ASSERT_EQ(smin[s], m) << ctx << " span " << s;
              want_total = std::min(want_total, m);
            }
            EXPECT_EQ(total, want_total) << ctx;
            EXPECT_EQ(smin[nspans], 0xdecafbadull)
                << ctx << " wrote past the last span";
            ASSERT_TRUE(StatesEqual(st, shadow.state()))
                << ctx << " final stream position";
          }
        }
      }
    }
  }
}

TEST(VecmathMegaScanTest, BitIdenticalAcrossDispatchLevels) {
  // Megakernel hit sequences (index AND ν payload) and final stream
  // positions must not depend on the lane.
  ScopedDispatchLevel restore;
  const size_t n = 531;
  std::vector<double> a(n), bars(n);
  Rng setup(99);
  setup.FillDouble(a);
  setup.FillDouble(bars);

  ASSERT_TRUE(SetDispatchLevel(DispatchLevel::kScalar));
  std::vector<FusedScanHit> ref;
  BlockRng::State ref_state;
  {
    Rng rng(99);
    BlockRng::State st = rng.state();
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = MegaLaplaceScanSumGePairwise(
          &st, 0.0, 2.0, {a.data() + from, n - from},
          {bars.data() + from, n - from}, 0.5);
      ref.push_back(hit);
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    ref_state = st;
  }
  ASSERT_GT(ref.size(), 2u) << "workload must contain several hits";

  for (DispatchLevel level : {DispatchLevel::kAvx2, DispatchLevel::kAvx512}) {
    if (!SetDispatchLevel(level)) continue;
    Rng rng(99);
    BlockRng::State st = rng.state();
    size_t k = 0;
    for (size_t from = 0; from <= n;) {
      const FusedScanHit hit = MegaLaplaceScanSumGePairwise(
          &st, 0.0, 2.0, {a.data() + from, n - from},
          {bars.data() + from, n - from}, 0.5);
      ASSERT_LT(k, ref.size());
      ASSERT_EQ(hit.index, ref[k].index) << DispatchLevelName(level);
      ASSERT_EQ(std::bit_cast<uint64_t>(hit.nu),
                std::bit_cast<uint64_t>(ref[k].nu))
          << DispatchLevelName(level);
      ++k;
      if (from + hit.index >= n) break;
      from += hit.index + 1;
    }
    EXPECT_EQ(k, ref.size()) << DispatchLevelName(level);
    EXPECT_TRUE(StatesEqual(st, ref_state)) << DispatchLevelName(level);
  }
}

TEST(VecmathMegaBoundedTest, SkipWordThresholdShape) {
  // No sound threshold exists when some answer reaches the bar (gap <= 0)
  // or the inputs are degenerate; otherwise the threshold shrinks (skips
  // more) as the gap grows, and a huge gap skips everything but word 0's
  // neighborhood. All returns stay at or below the sentinel + 1, the
  // AVX2 signed-compare cap.
  EXPECT_GE(MegaSkipWordThreshold(5.0, 5.0, 1.0), kMegaNeverSkipWord);
  EXPECT_GE(MegaSkipWordThreshold(7.0, 5.0, 1.0), kMegaNeverSkipWord);
  EXPECT_GE(MegaSkipWordThreshold(0.0, 1.0, 0.0), kMegaNeverSkipWord);
  uint64_t prev = UINT64_MAX;
  for (double gap : {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0}) {
    const uint64_t w = MegaSkipWordThreshold(0.0, gap, 1.7);
    EXPECT_LE(w, kMegaNeverSkipWord + 1) << "gap=" << gap;
    EXPECT_LE(w, prev) << "gap=" << gap;
    prev = w;
  }
  EXPECT_LT(MegaSkipWordThreshold(0.0, 40.0, 1.0), uint64_t{1} << 11);
}

TEST(VecmathMegaBoundedTest, BoundedScanMatchesUnboundedAtEveryLevel) {
  // The bounded scans must be bit-identical to the unbounded definition
  // — same hit indices, same ν payloads, same end states — at every
  // dispatch level, both with the production word threshold (near-bar
  // answers keep boundary pressure on its soundness) and with the
  // never-skip sentinel (pure pass-through).
  ScopedDispatchLevel restore;
  const size_t n = 1003;
  std::vector<double> a(n);
  Rng setup(321);
  setup.FillDouble(a);
  const double b = 1.75;
  const double bar = 1.0;
  double a_max = a[0];
  for (size_t i = 0; i < n; ++i) {
    a[i] = bar - 12.0 * a[i];  // gaps in (bar - 12, bar]: rare hits
    a_max = std::max(a_max, a[i]);
  }
  const uint64_t tight = MegaSkipWordThreshold(a_max, bar, b);
  ASSERT_LT(tight, kMegaNeverSkipWord) << "workload must allow skipping";

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (uint32_t pre : {0u, 1u, 3u}) {
      for (uint64_t skip : {tight, kMegaNeverSkipWord}) {
        const std::string ctx = std::string(DispatchLevelName(level)) +
                                " pre=" + std::to_string(pre) +
                                " skip=" + std::to_string(skip);
        size_t hits = 0;
        WalkMegaVsDefinition(
            41, n, 2, pre,
            [&](BlockRng::State* st, size_t from) {
              return MegaLaplaceScanSumGeBounded(
                  st, 0.0, b, {a.data() + from, n - from}, bar, skip);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return DefinitionScan(w, 2, 0.0, b, a.data() + from, bar);
            },
            ctx + " laplace", &hits);
        EXPECT_GT(hits, 1u) << ctx << " workload must contain hits";
        WalkMegaVsDefinition(
            41, n, 1, pre,
            [&](BlockRng::State* st, size_t from) {
              return MegaExpScanSumGeBounded(st, b, {a.data() + from, n - from},
                                             bar, skip);
            },
            [&](std::span<const uint64_t> w, size_t from) {
              return DefinitionScan(w, 1, 0.0, b, a.data() + from, bar);
            },
            ctx + " exp", &hits);
        EXPECT_GT(hits, 1u) << ctx << " workload must contain hits";
      }
    }
  }
}

TEST(VecmathMegaBoundedTest, FillMinScanSpansMatchesCompositionAtEveryLevel) {
  // The fused generate-bound-and-scan pass is defined as MegaFillMinSpans
  // (identical minima, span states, end state) plus the complete set of
  // positives a bounded-scan walk from the same origin finds — indices
  // and ν payloads bit for bit, in order. Also pins the overflow
  // contract: with a tiny max_hits the return value still counts every
  // positive and the stored prefix is unchanged.
  ScopedDispatchLevel restore;
  const double b = 2.25;
  const double bar = 0.5;
  std::vector<uint64_t> scratch;

  for (DispatchLevel level : kAllDispatchLevels) {
    if (!SetDispatchLevel(level)) continue;
    for (size_t n : {size_t{37}, size_t{128}, size_t{1000}, size_t{2048}}) {
      for (int exp_nu = 0; exp_nu <= 1; ++exp_nu) {
        const std::string ctx = std::string(DispatchLevelName(level)) +
                                " n=" + std::to_string(n) +
                                " exp=" + std::to_string(exp_nu);
        const size_t wpv = exp_nu ? 1 : 2;
        std::vector<double> a(n);
        Rng setup(n * 7 + exp_nu);
        setup.FillDouble(a);
        double a_max = -1e300;
        for (size_t i = 0; i < n; ++i) {
          a[i] = bar - 10.0 * a[i];
          a_max = std::max(a_max, a[i]);
        }
        const uint64_t skip = MegaSkipWordThreshold(a_max, bar, b);
        ASSERT_LT(skip, kMegaNeverSkipWord) << ctx;
        const size_t span = 128;
        const size_t nspans = (n + span - 1) / span;

        Rng ref_rng(77), fused_rng(77);
        const BlockRng::State s0 = ref_rng.state();

        // Reference: generate-and-bound pass, then a bounded-scan walk
        // from the same origin for the hit list.
        BlockRng::State ref_st = s0;
        std::vector<uint64_t> ref_min(nspans);
        std::vector<BlockRng::State> ref_states(nspans);
        const uint64_t ref_total = MegaFillMinSpans(
            &ref_st, n, wpv, span, ref_min.data(), ref_states.data());
        std::vector<FusedScanHit> ref_hits;
        {
          BlockRng::State sc = s0;
          size_t from = 0;
          while (from < n) {
            const FusedScanHit h =
                exp_nu ? MegaExpScanSumGeBounded(
                             &sc, b, {a.data() + from, n - from}, bar, skip)
                       : MegaLaplaceScanSumGeBounded(
                             &sc, 0.0, b, {a.data() + from, n - from}, bar,
                             skip);
            if (h.index >= n - from) break;
            ref_hits.push_back({from + h.index, h.nu});
            from += h.index + 1;
          }
        }
        ASSERT_GT(ref_hits.size(), 1u) << ctx << " workload must contain hits";

        BlockRng::State st = s0;
        std::vector<uint64_t> smin(nspans);
        std::vector<BlockRng::State> sstates(nspans);
        std::vector<FusedScanHit> hits(n);
        uint64_t total = 0;
        const size_t found =
            exp_nu ? MegaExpFillMinScanSpans(&st, b, a, bar, skip, span,
                                             smin.data(), sstates.data(),
                                             hits.data(), n, &total)
                   : MegaLaplaceFillMinScanSpans(&st, 0.0, b, a, bar, skip,
                                                 span, smin.data(),
                                                 sstates.data(), hits.data(),
                                                 n, &total);
        EXPECT_EQ(total, ref_total) << ctx;
        ASSERT_EQ(found, ref_hits.size()) << ctx;
        for (size_t k = 0; k < found; ++k) {
          ASSERT_EQ(hits[k].index, ref_hits[k].index) << ctx << " k=" << k;
          ASSERT_EQ(std::bit_cast<uint64_t>(hits[k].nu),
                    std::bit_cast<uint64_t>(ref_hits[k].nu))
              << ctx << " k=" << k;
        }
        for (size_t j = 0; j < nspans; ++j) {
          ASSERT_EQ(smin[j], ref_min[j]) << ctx << " span " << j;
          ASSERT_TRUE(StatesEqual(sstates[j], ref_states[j]))
              << ctx << " span state " << j;
        }
        ASSERT_TRUE(StatesEqual(st, ref_st)) << ctx << " end state";

        // Overflow: max_hits = 1 stores only the first hit but still
        // counts them all and leaves reductions and states unchanged.
        BlockRng::State st2 = s0;
        FusedScanHit first{};
        uint64_t total2 = 0;
        const size_t found2 =
            exp_nu ? MegaExpFillMinScanSpans(&st2, b, a, bar, skip, span,
                                             smin.data(), sstates.data(),
                                             &first, 1, &total2)
                   : MegaLaplaceFillMinScanSpans(&st2, 0.0, b, a, bar, skip,
                                                 span, smin.data(),
                                                 sstates.data(), &first, 1,
                                                 &total2);
        EXPECT_EQ(found2, found) << ctx;
        EXPECT_EQ(total2, ref_total) << ctx;
        EXPECT_EQ(first.index, ref_hits[0].index) << ctx;
        ASSERT_TRUE(StatesEqual(st2, ref_st)) << ctx << " overflow end state";
      }
    }
  }
}

}  // namespace
}  // namespace vec
}  // namespace svt
