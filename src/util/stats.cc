#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace locs {

namespace {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

}  // namespace

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  if (samples.empty()) return s;
  s.count = samples.size();
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = Percentile(sorted, 0.5);
  s.p95 = Percentile(sorted, 0.95);
  s.p99 = Percentile(sorted, 0.99);
  double sum = 0.0;
  for (double x : sorted) sum += x;
  s.sum = sum;
  s.mean = sum / static_cast<double>(s.count);
  if (s.count > 1) {
    double sq = 0.0;
    for (double x : sorted) {
      const double d = x - s.mean;
      sq += d * d;
    }
    s.stddev = std::sqrt(sq / static_cast<double>(s.count - 1));
  }
  return s;
}

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::stddev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

}  // namespace locs
