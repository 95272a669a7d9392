// Streaming accumulators for large replicated sweeps.
//
// The legacy analysis::Accumulator + percentile() pair needs every
// sample in memory to report quantiles — fine for a 60-trial figure,
// fatal for the 10^6-trial single-process runs `--trials` enables. This
// header adds the O(1)-memory counterparts:
//
//   * WelfordAccumulator — numerically stable online mean/variance
//     (Welford's recurrence; population variance to match the legacy
//     Accumulator's convention);
//   * P2Quantile — the P² algorithm (Jain & Chlamtac 1985): a single
//     quantile tracked with five markers, no sample retention. Exact
//     below five observations;
//   * YieldCounter — pass/total counting for Monte-Carlo yield columns;
//   * StatsAccumulator — the hybrid the streaming Aggregate uses: it
//     retains samples and reports *exactly* like the legacy
//     Accumulator/percentile pair while the count stays at or below an
//     exact-threshold (so existing aggregate reference CSVs stay
//     byte-identical), then spills to Welford + three P² estimators
//     (p5/p50/p95) and frees the sample buffer once the count exceeds
//     it. Memory is O(min(count, threshold)).
//
// Accuracy contract (documented for the unit tests): on the seeded
// 10^4-sample vectors in tests/accumulator_test.cpp, the spilled P²
// estimates land within 0.02 (absolute, samples scaled to [0,1]) of the
// exact sort-based quantiles, and Welford's mean/stddev match the
// two-pass values to ~1e-12 relative. P² estimates depend on insertion
// order; streaming consumption order is deterministic (scenario order),
// so spilled aggregates are still byte-identical across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace emc::analysis {

/// Online mean/variance, Welford's recurrence. Population variance
/// (divide by n), matching the legacy Accumulator.
class WelfordAccumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// One streaming quantile via the P² algorithm. `p` is the quantile in
/// (0, 1), e.g. 0.5 for the median. Exact (sort-based, the legacy
/// percentile() interpolation) while fewer than five samples have been
/// observed; five-marker estimation after that.
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x);
  double value() const;

 private:
  double p_;
  std::uint64_t count_ = 0;
  double q_[5] = {0, 0, 0, 0, 0};   // marker heights
  double n_[5] = {0, 0, 0, 0, 0};   // marker positions (1-based)
  double np_[5] = {0, 0, 0, 0, 0};  // desired positions
  double dn_[5] = {0, 0, 0, 0, 0};  // desired-position increments
};

/// Pass/total counter for 0/1 yield columns.
class YieldCounter {
 public:
  void add(bool pass) {
    ++total_;
    if (pass) ++pass_;
  }
  std::uint64_t total() const { return total_; }
  std::uint64_t passed() const { return pass_; }
  /// Pass fraction; 0 when nothing was counted (callers that must
  /// distinguish "no data" check total() first, as Aggregate does).
  double fraction() const {
    return total_ > 0 ? static_cast<double>(pass_) / static_cast<double>(total_)
                      : 0.0;
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t pass_ = 0;
};

/// Hybrid exact/streaming distribution summary: mean, stddev, and the
/// p5/p50/p95 quantiles Aggregate reports. Exact (legacy-identical)
/// while count <= kExactThreshold; O(1)-memory streaming after.
class StatsAccumulator {
 public:
  /// Every recorded figure's per-group trial count is far below this,
  /// so the aggregate refs reduce through the exact path.
  static constexpr std::size_t kExactThreshold = 4096;

  void add(double x);

  std::uint64_t count() const { return count_; }
  /// True while results come from the retained-sample exact path.
  bool exact() const { return !spilled_; }

  /// The three quantiles Aggregate reports.
  struct Quantiles {
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
  };

  /// Mean and (population) stddev Aggregate reports.
  struct Moments {
    double mean = 0.0;
    double stddev = 0.0;
  };

  /// Both moments: on the exact path from one replay of the retained
  /// samples through the legacy Accumulator (insertion order, so reduced
  /// cells stay byte-identical to it), on the spilled path from Welford.
  Moments moments() const;
  /// p5/p50/p95: on the exact path from one sorted copy of the samples
  /// (analysis::percentile's interpolation, all zero when empty), on the
  /// spilled path from the three P² estimators.
  Quantiles quantiles() const;

 private:
  void spill();

  std::uint64_t count_ = 0;
  bool spilled_ = false;
  std::vector<double> samples_;  // retained on the exact path only
  WelfordAccumulator welford_;   // always on: spill never loses moments
  P2Quantile q5_{0.05};
  P2Quantile q50_{0.50};
  P2Quantile q95_{0.95};
};

}  // namespace emc::analysis
