// Summary statistics for experiment reporting.
#pragma once

#include <cstdint>
#include <vector>

namespace emc::analysis {

class Accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? sum_ / double(n_) : 0.0; }
  double variance() const;
  double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Percentile of a sample set (linear interpolation, p in [0,100]).
double percentile(std::vector<double> samples, double p);

/// percentile() of samples already sorted ascending: the one
/// interpolation every exact quantile goes through, so callers that
/// need several quantiles of one set sort it once.
double sorted_percentile(const std::vector<double>& sorted, double p);

/// Pearson correlation between two equal-length series.
double correlation(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace emc::analysis
