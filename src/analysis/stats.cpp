#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>

namespace emc::analysis {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  const double m = mean();
  return std::max(0.0, sum_sq_ / double(n_) - m * m);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double f = rank - static_cast<double>(lo);
  return sorted[lo] + f * (sorted[hi] - sorted[lo]);
}

double correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace emc::analysis
