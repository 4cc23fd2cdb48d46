#include "data/score_vector.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"

namespace svt {

ScoreVector::ScoreVector(std::vector<double> scores)
    : scores_(std::move(scores)) {
  for (double s : scores_) {
    SVT_CHECK(s >= 0.0) << "scores must be non-negative, got " << s;
  }
}

double ScoreVector::Total() const {
  KahanAccumulator acc;
  for (double s : scores_) acc.Add(s);
  return acc.sum();
}

double ScoreVector::Max() const {
  SVT_CHECK(!scores_.empty());
  return *std::max_element(scores_.begin(), scores_.end());
}

std::vector<double> ScoreVector::SortedDescending() const {
  std::vector<double> out = scores_;
  std::sort(out.begin(), out.end(), std::greater<double>());
  return out;
}

std::vector<double> ScoreVector::TopK(size_t k) const {
  SVT_CHECK(k <= scores_.size());
  std::vector<double> out = scores_;
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(k),
                    out.end(), std::greater<double>());
  out.resize(k);
  return out;
}

ScoreVector ScoreVector::Shuffled(Rng& rng) const {
  std::vector<double> out = scores_;
  rng.Shuffle(&out);
  return ScoreVector(std::move(out));
}

ScoreVector ScoreVector::Permuted(std::span<const uint32_t> permutation) const {
  SVT_CHECK(permutation.size() == scores_.size());
  std::vector<double> out(scores_.size());
  for (size_t i = 0; i < scores_.size(); ++i) {
    SVT_CHECK(permutation[i] < scores_.size());
    out[i] = scores_[permutation[i]];
  }
  return ScoreVector(std::move(out));
}

}  // namespace svt
