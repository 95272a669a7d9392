// Monotone calibration tables (code <-> voltage).
//
// Both sensors produce a digital code that is a monotonic function of the
// measured voltage; "it is not exactly linear but it can be calibrated
// and stored in a look-up table" (§III.B). The table is built from a
// calibration sweep and inverted by linear interpolation; accuracy
// analysis reports the worst reconstruction error over a verification
// sweep — the paper's "accuracy of 10 mV" figure of merit.
#pragma once

#include <utility>
#include <vector>

namespace emc::sensor {

class CalibrationTable {
 public:
  /// Add one calibration point (any insertion order).
  void add(double code, double volts);

  /// Voltage estimate for a code: linear interpolation between the two
  /// surrounding calibration points, clamped at the ends. Handles both
  /// increasing and decreasing code-vs-voltage relations.
  double lookup(double code) const;

 private:
  void sort_by_code() const;

  mutable std::vector<std::pair<double, double>> points_;  // (code, volts)
  mutable bool sorted_ = false;
};

struct AccuracyReport {
  double max_abs_error_v = 0.0;
  double mean_abs_error_v = 0.0;
  double rms_error_v = 0.0;
  std::size_t samples = 0;
};

/// Evaluate a calibrated sensor: for each (code, true_volts) verification
/// sample, accumulate |lookup(code) - true_volts|.
AccuracyReport evaluate_accuracy(
    const CalibrationTable& table,
    const std::vector<std::pair<double, double>>& verification);

}  // namespace emc::sensor
