#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "bench_util.h"

namespace perfbench {

int32_t Tracer::Open(const char* name, uint64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int64_t now = NowNanos();
  spans_.push_back({name, now, now, parent, request});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end = NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  out << "index\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
        << s.parent << '\t' << s.request << '\t' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start;  // end of the union so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

NameTotal TotalFor(const std::vector<Span>& spans,
                   const std::vector<int64_t>& self_times, const char* name) {
  NameTotal t;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    t.self_ns += self_times[i];
    t.total_ns += spans[i].end - spans[i].start;
    ++t.count;
  }
  return t;
}

double SelfTimeCoverage(const std::vector<Span>& spans,
                        const std::vector<int64_t>& self_times, int64_t begin,
                        int64_t end) {
  if (end <= begin) return 0.0;
  std::vector<bool> has_children(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent >= 0) has_children[static_cast<size_t>(s.parent)] = true;
  }
  int64_t covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const bool wrapper = spans[i].parent < 0 && has_children[i];
    if (!wrapper && spans[i].start >= begin && spans[i].end <= end) {
      covered += self_times[i];
    }
  }
  return static_cast<double>(covered) / static_cast<double>(end - begin);
}

}  // namespace perfbench
