// Streaming-accumulator tests: Welford vs two-pass moments, P² vs exact
// sort-based quantiles on fixed seeded vectors (tolerance documented in
// analysis/accumulator.hpp), the hybrid StatsAccumulator's exact-path
// equivalence with the legacy Accumulator/percentile pair, and the
// streaming Aggregate::Sink's equivalence with that pair per group,
// including group-order determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/accumulator.hpp"
#include "analysis/aggregate.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"

namespace emc {
namespace {

/// Deterministic sample vectors: xorshift64* mapped to [0, 1). No
/// std::random device dependence — the accuracy contract in
/// accumulator.hpp is stated against exactly these vectors.
std::vector<double> seeded_uniform(std::uint64_t seed, std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  std::uint64_t x = seed ? seed : 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const std::uint64_t r = x * 0x2545f4914f6cdd1dull;
    out.push_back(static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0));
  }
  return out;
}

double two_pass_mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double two_pass_stddev(const std::vector<double>& v) {
  const double m = two_pass_mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));  // population
}

// ---- Welford ---------------------------------------------------------------

TEST(Welford, MatchesTwoPassMoments) {
  const auto v = seeded_uniform(101, 10000);
  analysis::WelfordAccumulator w;
  for (double x : v) w.add(x);
  const double m = two_pass_mean(v);
  const double sd = two_pass_stddev(v);
  EXPECT_EQ(w.count(), v.size());
  EXPECT_NEAR(w.mean(), m, std::fabs(m) * 1e-12);
  EXPECT_NEAR(w.stddev(), sd, sd * 1e-12);
}

TEST(Welford, StableUnderLargeOffset) {
  // Classic catastrophic-cancellation case for the sum-of-squares
  // formula: a tiny spread riding on a huge mean.
  analysis::WelfordAccumulator w;
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    const double x = 1e9 + static_cast<double>(i % 10) * 1e-3;
    v.push_back(x);
    w.add(x);
  }
  const double sd = two_pass_stddev(v);
  EXPECT_GT(sd, 0.0);
  EXPECT_NEAR(w.stddev(), sd, sd * 1e-6);
}

TEST(Welford, EmptyIsZero) {
  analysis::WelfordAccumulator w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.stddev(), 0.0);
}

// ---- P² ---------------------------------------------------------------------

TEST(P2Quantile, ExactBelowFiveSamples) {
  analysis::P2Quantile q(0.50);
  q.add(3.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.value(), analysis::percentile({3.0, 1.0}, 50.0));
  q.add(2.0);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.value(),
                   analysis::percentile({3.0, 1.0, 2.0, 10.0}, 50.0));
}

TEST(P2Quantile, TracksSortedQuantilesWithinTolerance) {
  // The documented accuracy contract: within 0.02 absolute of the exact
  // sort-based quantile on seeded 10^4 uniform [0,1) vectors.
  const auto v = seeded_uniform(202, 10000);
  const double kTol = 0.02;
  for (double p : {0.05, 0.50, 0.95}) {
    analysis::P2Quantile q(p);
    for (double x : v) q.add(x);
    const double exact = analysis::percentile(v, p * 100.0);
    EXPECT_NEAR(q.value(), exact, kTol) << "p = " << p;
  }
}

TEST(P2Quantile, DeterministicForSameOrder) {
  const auto v = seeded_uniform(303, 5000);
  analysis::P2Quantile a(0.95), b(0.95);
  for (double x : v) {
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(a.value(), b.value());
}

// ---- YieldCounter ----------------------------------------------------------

TEST(YieldCounter, CountsAndFraction) {
  analysis::YieldCounter y;
  EXPECT_EQ(y.total(), 0u);
  EXPECT_DOUBLE_EQ(y.fraction(), 0.0);
  y.add(true);
  y.add(false);
  y.add(true);
  y.add(true);
  EXPECT_EQ(y.total(), 4u);
  EXPECT_EQ(y.passed(), 3u);
  EXPECT_DOUBLE_EQ(y.fraction(), 0.75);
}

// ---- StatsAccumulator hybrid ----------------------------------------------

TEST(StatsAccumulator, ExactPathMatchesLegacyPair) {
  // At or below the threshold the hybrid must agree with the historical
  // Accumulator + percentile() reduction bit-for-bit — that is what
  // keeps existing aggregate reference CSVs byte-identical.
  const auto v = seeded_uniform(404, 60);
  analysis::StatsAccumulator s;
  analysis::Accumulator legacy;
  for (double x : v) {
    s.add(x);
    legacy.add(x);
  }
  ASSERT_TRUE(s.exact());
  const analysis::StatsAccumulator::Moments m = s.moments();
  EXPECT_DOUBLE_EQ(m.mean, legacy.mean());
  EXPECT_DOUBLE_EQ(m.stddev, legacy.stddev());
  const analysis::StatsAccumulator::Quantiles q = s.quantiles();
  EXPECT_DOUBLE_EQ(q.p5, analysis::percentile(v, 5.0));
  EXPECT_DOUBLE_EQ(q.p50, analysis::percentile(v, 50.0));
  EXPECT_DOUBLE_EQ(q.p95, analysis::percentile(v, 95.0));
}

TEST(StatsAccumulator, ExactQuantilesEqualPercentileOnTiesAndEdgeSizes) {
  // The one-sort quantiles must be analysis::percentile's values, bit
  // for bit: ties, the smallest sample counts and the largest count the
  // exact path keeps.
  std::vector<std::vector<double>> cases;
  std::vector<double> ties;
  for (double x : seeded_uniform(606, 61)) ties.push_back(std::floor(x * 5));
  cases.push_back(ties);
  cases.push_back(std::vector<double>(7, 2.5));
  for (std::size_t n : {std::size_t{1}, std::size_t{2},
                        analysis::StatsAccumulator::kExactThreshold}) {
    cases.push_back(seeded_uniform(707 + n, n));
  }
  for (const auto& v : cases) {
    analysis::StatsAccumulator s;
    for (double x : v) s.add(x);
    ASSERT_TRUE(s.exact());
    const analysis::StatsAccumulator::Quantiles q = s.quantiles();
    EXPECT_EQ(q.p5, analysis::percentile(v, 5.0)) << "n = " << v.size();
    EXPECT_EQ(q.p50, analysis::percentile(v, 50.0)) << "n = " << v.size();
    EXPECT_EQ(q.p95, analysis::percentile(v, 95.0)) << "n = " << v.size();
  }
  const analysis::StatsAccumulator::Quantiles none =
      analysis::StatsAccumulator().quantiles();
  EXPECT_EQ(none.p5, 0.0);
  EXPECT_EQ(none.p50, 0.0);
  EXPECT_EQ(none.p95, 0.0);
}

TEST(StatsAccumulator, MomentsEqualTheLegacyReplayAndWelfordBitForBit) {
  // moments() replays the retained samples once for both columns. On
  // the exact path it must give the legacy Accumulator's mean and stddev
  // bit for bit (ties, the smallest counts, the largest count kept), on
  // the spilled path Welford's.
  std::vector<std::vector<double>> cases;
  std::vector<double> ties;
  for (double x : seeded_uniform(616, 61)) ties.push_back(std::floor(x * 5));
  cases.push_back(ties);
  for (std::size_t n : {std::size_t{1}, std::size_t{2},
                        analysis::StatsAccumulator::kExactThreshold}) {
    cases.push_back(seeded_uniform(717 + n, n));
  }
  for (const auto& v : cases) {
    analysis::StatsAccumulator s;
    analysis::Accumulator legacy;
    for (double x : v) {
      s.add(x);
      legacy.add(x);
    }
    ASSERT_TRUE(s.exact());
    const analysis::StatsAccumulator::Moments m = s.moments();
    EXPECT_EQ(m.mean, legacy.mean()) << "n = " << v.size();
    EXPECT_EQ(m.stddev, legacy.stddev()) << "n = " << v.size();
  }

  const auto v = seeded_uniform(
      818, analysis::StatsAccumulator::kExactThreshold + 100);
  analysis::StatsAccumulator s;
  analysis::WelfordAccumulator w;
  for (double x : v) {
    s.add(x);
    w.add(x);
  }
  ASSERT_FALSE(s.exact());
  const analysis::StatsAccumulator::Moments m = s.moments();
  EXPECT_EQ(m.mean, w.mean());
  EXPECT_EQ(m.stddev, w.stddev());
}

TEST(StatsAccumulator, SpillsAtThresholdAndStaysAccurate) {
  const std::size_t kThreshold = analysis::StatsAccumulator::kExactThreshold;
  const auto v = seeded_uniform(505, 10000);
  analysis::StatsAccumulator s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    s.add(v[i]);
    // exact() flips exactly when the count first exceeds the threshold.
    EXPECT_EQ(s.exact(), i + 1 <= kThreshold) << "i = " << i;
    if (i + 1 > kThreshold + 4) break;  // flip verified; finish fast
  }
  for (std::size_t i = kThreshold + 5; i < v.size(); ++i) s.add(v[i]);
  EXPECT_EQ(s.count(), v.size());

  // Spilling never loses moments (Welford runs from sample one) and
  // the P² quantiles stay within the documented 0.02 tolerance.
  const analysis::StatsAccumulator::Moments m = s.moments();
  EXPECT_NEAR(m.mean, two_pass_mean(v), 1e-12);
  EXPECT_NEAR(m.stddev, two_pass_stddev(v), 1e-12);
  const analysis::StatsAccumulator::Quantiles q = s.quantiles();
  EXPECT_NEAR(q.p5, analysis::percentile(v, 5.0), 0.02);
  EXPECT_NEAR(q.p50, analysis::percentile(v, 50.0), 0.02);
  EXPECT_NEAR(q.p95, analysis::percentile(v, 95.0), 0.02);
}

TEST(StatsAccumulator, SpilledQuantilesComeFromTheP2Estimators) {
  // Past the threshold the quantiles are the three P² markers, fed every
  // sample in insertion order (the retained ones replayed at the spill).
  const auto v = seeded_uniform(
      808, analysis::StatsAccumulator::kExactThreshold + 100);
  analysis::StatsAccumulator s;
  analysis::P2Quantile p5(0.05), p50(0.50), p95(0.95);
  for (double x : v) {
    s.add(x);
    p5.add(x);
    p50.add(x);
    p95.add(x);
  }
  ASSERT_FALSE(s.exact());
  const analysis::StatsAccumulator::Quantiles q = s.quantiles();
  EXPECT_EQ(q.p5, p5.value());
  EXPECT_EQ(q.p50, p50.value());
  EXPECT_EQ(q.p95, p95.value());
}

// ---- streaming Aggregate ---------------------------------------------------

analysis::Table trial_table(std::size_t groups, std::size_t trials,
                            std::uint64_t seed) {
  analysis::Table t({"point", "trial", "value", "ok"});
  const auto v = seeded_uniform(seed, groups * trials);
  std::size_t i = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < trials; ++k, ++i) {
      t.add_row({"g" + std::to_string(g), std::to_string(k),
                 analysis::Table::num(v[i], 6), v[i] > 0.5 ? "1" : "0"});
    }
  }
  return t;
}

TEST(AggregateSink, MatchesLegacyReductionPerGroup) {
  // Below the exact threshold every reduced cell is what the historical
  // Accumulator + percentile() reduction of the group's samples prints.
  const std::size_t kGroups = 4;
  const std::size_t kTrials = 50;
  const analysis::Table in = trial_table(kGroups, kTrials, 606);
  const analysis::Aggregate spec =
      analysis::Aggregate({"point"}).stats("value").yield("ok");

  analysis::Aggregate::Sink sink = spec.sink(in.headers());
  for (std::size_t r = 0; r < in.row_count(); ++r) sink.consume(in.row(r));
  EXPECT_EQ(sink.rows(), in.row_count());
  EXPECT_EQ(sink.groups(), kGroups);

  const analysis::Table out = sink.finish();
  ASSERT_EQ(out.row_count(), kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::vector<double> v;
    analysis::Accumulator acc;
    std::size_t pass = 0;
    for (std::size_t k = 0; k < kTrials; ++k) {
      const auto& row = in.row(g * kTrials + k);
      v.push_back(std::stod(row[2]));
      acc.add(v.back());
      if (row[3] == "1") ++pass;
    }
    const auto num = [](double x) { return analysis::Table::num(x, 4); };
    const std::vector<std::string> expect = {
        in.row(g * kTrials)[0],
        std::to_string(kTrials),
        num(acc.mean()),
        num(acc.stddev()),
        num(analysis::percentile(v, 5.0)),
        num(analysis::percentile(v, 50.0)),
        num(analysis::percentile(v, 95.0)),
        num(static_cast<double>(pass) / static_cast<double>(kTrials))};
    EXPECT_EQ(out.row(g), expect) << "group " << g;
  }
}

TEST(AggregateSink, GroupOrderIsFirstAppearance) {
  // Streaming consumption in scenario order must reduce to groups in
  // first-appearance order — the determinism contract the aggregate
  // CSVs inherit from the sweep.
  const analysis::Aggregate spec = analysis::Aggregate({"k"}).stats("v");
  analysis::Aggregate::Sink sink = spec.sink({"k", "v"});
  sink.consume({"b", "1.0"});
  sink.consume({"a", "2.0"});
  sink.consume({"b", "3.0"});
  sink.consume({"c", "4.0"});
  sink.consume({"a", "5.0"});
  const analysis::Table out = sink.finish();
  ASSERT_EQ(out.row_count(), 3u);
  EXPECT_EQ(out.row(0)[0], "b");
  EXPECT_EQ(out.row(1)[0], "a");
  EXPECT_EQ(out.row(2)[0], "c");
}

TEST(AggregateSink, SkipsUnparsableCells) {
  const analysis::Aggregate spec = analysis::Aggregate({"k"}).stats("v");
  analysis::Aggregate::Sink sink = spec.sink({"k", "v"});
  sink.consume({"a", "-"});
  sink.consume({"a", "2.0"});
  sink.consume({"b", "-"});
  const analysis::Table out = sink.finish();
  ASSERT_EQ(out.row_count(), 2u);
  // Group "a": one parsable sample; group "b": none -> "-" cells.
  EXPECT_EQ(out.row(0)[2], analysis::Table::num(2.0, 4));  // a mean
  EXPECT_EQ(out.row(1)[2], "-");                           // b mean
}

TEST(AggregateSink, FinishIsARepeatableSnapshot) {
  const analysis::Aggregate spec = analysis::Aggregate({"k"}).stats("v");
  analysis::Aggregate::Sink sink = spec.sink({"k", "v"});
  sink.consume({"a", "1.0"});
  const std::string first = sink.finish().to_csv();
  EXPECT_EQ(sink.finish().to_csv(), first);
  sink.consume({"a", "3.0"});
  EXPECT_NE(sink.finish().to_csv(), first);
}

TEST(AggregateSink, MissingColumnThrows) {
  const analysis::Aggregate spec = analysis::Aggregate({"k"}).stats("v");
  EXPECT_THROW(spec.sink({"k", "other"}), std::invalid_argument);
  EXPECT_THROW(analysis::Aggregate({"missing"}).stats("v").sink({"k", "v"}),
               std::invalid_argument);
}

TEST(AggregateSpilledStillDeterministic, SameOrderSameBytes) {
  // Even past the exact threshold (P² path), identical consumption
  // order must give identical output bytes.
  const analysis::Table in =
      trial_table(2, analysis::StatsAccumulator::kExactThreshold + 100, 707);
  const analysis::Aggregate spec =
      analysis::Aggregate({"point"}).stats("value").yield("ok");
  analysis::Aggregate::Sink a = spec.sink(in.headers());
  analysis::Aggregate::Sink b = spec.sink(in.headers());
  for (std::size_t r = 0; r < in.row_count(); ++r) {
    a.consume(in.row(r));
    b.consume(in.row(r));
  }
  EXPECT_EQ(a.finish().to_csv(), b.finish().to_csv());
}

}  // namespace
}  // namespace emc
