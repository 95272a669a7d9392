#include "analysis/accumulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/stats.hpp"

namespace emc::analysis {

void WelfordAccumulator::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double WelfordAccumulator::variance() const {
  if (n_ < 2) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(n_));
}

double WelfordAccumulator::stddev() const { return std::sqrt(variance()); }

P2Quantile::P2Quantile(double p) : p_(p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("P2Quantile: p must be in (0, 1)");
  }
  dn_[0] = 0.0;
  dn_[1] = p_ / 2.0;
  dn_[2] = p_;
  dn_[3] = (1.0 + p_) / 2.0;
  dn_[4] = 1.0;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    // Initialization phase: collect the first five observations sorted
    // into the marker heights.
    q_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(q_, q_ + 5);
      for (int i = 0; i < 5; ++i) n_[i] = i + 1;
      // Desired positions for the five observations seen so far.
      np_[0] = 1.0;
      np_[1] = 1.0 + 2.0 * p_;
      np_[2] = 1.0 + 4.0 * p_;
      np_[3] = 3.0 + 2.0 * p_;
      np_[4] = 5.0;
    }
    return;
  }

  // Locate the cell k containing x, extending the extremes if needed.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    for (int i = 1; i < 4; ++i) {
      if (x >= q_[i]) k = i;
    }
  }

  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];
  ++count_;

  // Adjust the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) prediction of the marker height.
      const double qn =
          q_[i] + s / (n_[i + 1] - n_[i - 1]) *
                      ((n_[i] - n_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                           (n_[i + 1] - n_[i]) +
                       (n_[i + 1] - n_[i] - s) * (q_[i] - q_[i - 1]) /
                           (n_[i] - n_[i - 1]));
      if (q_[i - 1] < qn && qn < q_[i + 1]) {
        q_[i] = qn;
      } else {
        // Parabolic prediction left the bracket: fall back to linear.
        const int j = i + static_cast<int>(s);
        q_[i] = q_[i] + s * (q_[j] - q_[i]) / (n_[j] - n_[i]);
      }
      n_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample path: same interpolation as the legacy
    // percentile() helper.
    std::vector<double> s(q_, q_ + count_);
    return analysis::percentile(std::move(s), p_ * 100.0);
  }
  return q_[2];
}

void StatsAccumulator::add(double x) {
  ++count_;
  welford_.add(x);
  if (!spilled_) {
    samples_.push_back(x);
    if (samples_.size() > kExactThreshold) spill();
    return;
  }
  q5_.add(x);
  q50_.add(x);
  q95_.add(x);
}

void StatsAccumulator::spill() {
  // Replay the retained samples (insertion order — deterministic, since
  // streaming consumption is in scenario order) into the P² estimators,
  // then drop the buffer: from here on memory is O(1).
  for (double v : samples_) {
    q5_.add(v);
    q50_.add(v);
    q95_.add(v);
  }
  samples_.clear();
  samples_.shrink_to_fit();
  spilled_ = true;
}

StatsAccumulator::Moments StatsAccumulator::moments() const {
  if (spilled_) return {welford_.mean(), welford_.stddev()};
  Accumulator acc;
  for (double v : samples_) acc.add(v);
  return {acc.mean(), acc.stddev()};
}

StatsAccumulator::Quantiles StatsAccumulator::quantiles() const {
  if (spilled_) return {q5_.value(), q50_.value(), q95_.value()};
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return {sorted_percentile(sorted, 5.0), sorted_percentile(sorted, 50.0),
          sorted_percentile(sorted, 95.0)};
}

}  // namespace emc::analysis
