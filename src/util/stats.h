// Summary statistics over measurement samples (runtimes, sizes, ratios).

#ifndef LOCS_UTIL_STATS_H_
#define LOCS_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace locs {

/// Summary of a sample set: count, mean, (sample) standard deviation,
/// extremes, and selected percentiles.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double sum = 0.0;
};

/// Computes a Summary of `samples`. An empty sample set yields all zeros.
Summary Summarize(const std::vector<double>& samples);

/// Streaming mean/variance accumulator (Welford). Useful when samples are
/// too numerous to retain.
class OnlineStats {
 public:
  void Add(double x);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample standard deviation; 0 for fewer than two samples.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace locs

#endif  // LOCS_UTIL_STATS_H_
