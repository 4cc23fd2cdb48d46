#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// Zero-based nearest-rank index of percentile p among n sorted samples.
// The epsilon keeps p = 99.9, n = 10000 at rank 9990: 99.9 / 100 is not
// exact in binary and would otherwise round the rank up past it.
size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[RankIndex(samples.size(), p)];
}

TailChoice ChooseTail(std::vector<double> samples, int64_t min_beyond) {
  TailChoice choice;
  if (samples.empty()) return choice;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const size_t idx = RankIndex(n, p);
    choice = {p, samples[idx], static_cast<int64_t>(n - 1 - idx)};
    if (choice.beyond >= min_beyond) break;
  }
  return choice;
}

double WindowedTail(const std::vector<double>& samples, size_t window,
                    TailChoice* choice) {
  const size_t n = samples.size();
  const size_t windows = std::max<size_t>(n / window, 1);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    *choice = ChooseTail(std::vector<double>(
        samples.begin() + static_cast<ptrdiff_t>(n * w / windows),
        samples.begin() + static_cast<ptrdiff_t>(n * (w + 1) / windows)));
    tails.push_back(choice->value);
  }
  return Median(tails);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
