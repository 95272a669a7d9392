#include "sensor/calibration.hpp"

#include <algorithm>
#include <cmath>

namespace emc::sensor {

void CalibrationTable::add(double code, double volts) {
  points_.emplace_back(code, volts);
  sorted_ = false;
}

void CalibrationTable::sort_by_code() const {
  if (sorted_) return;
  std::sort(points_.begin(), points_.end());
  sorted_ = true;
}

double CalibrationTable::lookup(double code) const {
  if (points_.empty()) return 0.0;
  sort_by_code();
  if (code <= points_.front().first) return points_.front().second;
  if (code >= points_.back().first) return points_.back().second;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), code,
      [](const auto& p, double c) { return p.first < c; });
  const auto& [c1, v1] = *it;
  const auto& [c0, v0] = *(it - 1);
  if (c1 == c0) return 0.5 * (v0 + v1);
  const double f = (code - c0) / (c1 - c0);
  return v0 + f * (v1 - v0);
}

AccuracyReport evaluate_accuracy(
    const CalibrationTable& table,
    const std::vector<std::pair<double, double>>& verification) {
  AccuracyReport r;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [code, truth] : verification) {
    const double err = std::fabs(table.lookup(code) - truth);
    r.max_abs_error_v = std::max(r.max_abs_error_v, err);
    sum += err;
    sum_sq += err * err;
    ++r.samples;
  }
  if (r.samples > 0) {
    r.mean_abs_error_v = sum / static_cast<double>(r.samples);
    r.rms_error_v = std::sqrt(sum_sq / static_cast<double>(r.samples));
  }
  return r;
}

}  // namespace emc::sensor
