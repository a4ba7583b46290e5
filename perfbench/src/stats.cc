#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "common/rng.h"

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t lo = NearestRank(values.size(), 0.25) - 1;
  const size_t hi = NearestRank(values.size(), 0.75);
  return std::accumulate(values.begin() + lo, values.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double HighestSupportedQuantile(size_t n, size_t min_beyond) {
  for (const double q : {0.9999, 0.999, 0.99, 0.9, 0.75}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.5;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> arrivals;
  if (rate_per_s <= 0.0) return arrivals;
  rll::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  // Visit spans per thread by start time, longest first on ties, so a
  // parent always precedes the children it contains.
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;

  // Open ancestors; `covered_to` is how far the parent's interval is
  // already charged to earlier children, so overlapping children count
  // once.
  struct Open {
    size_t index;
    int64_t end;
    int64_t covered_to;
  };
  std::vector<Open> stack;
  uint32_t tid = 0;
  for (const size_t i : order) {
    const SpanRecord& s = spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    const int64_t end = s.start_us + s.dur_us;
    while (!stack.empty() && stack.back().end <= s.start_us) stack.pop_back();
    if (!stack.empty()) {
      Open& parent = stack.back();
      const int64_t from = std::max(s.start_us, parent.covered_to);
      const int64_t to = std::min(end, parent.end);
      if (to > from) {
        self[parent.index] -= to - from;
        parent.covered_to = to;
      }
    }
    stack.push_back({i, end, s.start_us});
  }
  return self;
}

std::map<std::string, uint64_t> GroupFoldedStacks(
    const std::string& folded, const std::vector<FrameGroup>& groups) {
  std::map<std::string, uint64_t> counts;
  counts["total"] = 0;
  size_t pos = 0;
  while (pos < folded.size()) {
    size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) eol = folded.size();
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const uint64_t count = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    std::vector<std::string> frames;
    size_t start = 0;
    while (start <= space) {
      size_t semi = line.find(';', start);
      if (semi == std::string::npos || semi > space) semi = space;
      frames.push_back(line.substr(start, semi - start));
      start = semi + 1;
    }
    std::string group = "other";
    for (auto frame = frames.rbegin(); frame != frames.rend(); ++frame) {
      if (frame->rfind("span:", 0) == 0) continue;
      bool matched = false;
      for (const FrameGroup& g : groups) {
        for (const std::string& pattern : g.patterns) {
          if (frame->find(pattern) != std::string::npos) {
            group = g.name;
            matched = true;
            break;
          }
        }
        if (matched) break;
      }
      if (matched) break;
    }
    counts[group] += count;
    counts["total"] += count;
  }
  return counts;
}

}  // namespace perfbench
