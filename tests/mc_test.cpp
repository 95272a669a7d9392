// Monte-Carlo engine tests: counter-based seed streams, variation
// sampling (elaboration-order independence), the per-gate strength path,
// Workbench::replicate determinism (1 vs N threads byte-identical, trial
// seeds shared across grid points), per-trial supply re-keying, and the
// Aggregate reducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/table.hpp"
#include "device/delay_model.hpp"
#include "device/variation.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "gates/combinational.hpp"
#include "sim/random.hpp"

namespace emc {
namespace {

// ---- seed streams ----------------------------------------------------------

TEST(SeedStream, DeriveSeedIsPureAndSpreads) {
  EXPECT_EQ(sim::derive_seed(42, 7), sim::derive_seed(42, 7));
  EXPECT_NE(sim::derive_seed(42, 7), sim::derive_seed(42, 8));
  EXPECT_NE(sim::derive_seed(42, 7), sim::derive_seed(43, 7));
  // Consecutive streams must not collide over a realistic instance range.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(sim::derive_seed(1, i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(SeedStream, KeyedRngReproduces) {
  sim::Rng a = sim::Rng::keyed(9, 3);
  sim::Rng b = sim::Rng::keyed(9, 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
  sim::Rng c = sim::Rng::keyed(9, 4);
  EXPECT_NE(sim::Rng::keyed(9, 3).uniform(), c.uniform());
}

TEST(SeedStream, AdjacentStreamsAreUncorrelated) {
  // Per-instance streams differ only in their stream id; their first
  // draws must not track each other.
  constexpr int kIds = 100000;
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (int i = 0; i < kIds; ++i) {
    const double x = sim::Rng::keyed(2026, i).uniform();
    const double y = sim::Rng::keyed(2026, i + 1).uniform();
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double n = kIds;
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double corr = cov / std::sqrt((sxx / n - (sx / n) * (sx / n)) *
                                      (syy / n - (sy / n) * (sy / n)));
  EXPECT_LT(std::abs(corr), 0.01);
}

// ---- variation sampling ----------------------------------------------------

TEST(Variation, SamplesAreOrderIndependent) {
  const device::VariationSampler s(device::Variation::local(0.03, 0.05), 77);
  // Forward and reverse walks must see identical samples: sample(i) is a
  // pure function of (trial_seed, i), never a sequential draw.
  std::vector<device::DeviceSample> fwd, rev;
  for (std::uint64_t i = 0; i < 32; ++i) fwd.push_back(s.sample(i));
  for (std::uint64_t i = 32; i-- > 0;) rev.push_back(s.sample(i));
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(fwd[i].vth_offset, rev[31 - i].vth_offset);
    EXPECT_DOUBLE_EQ(fwd[i].strength, rev[31 - i].strength);
  }
}

TEST(Variation, NoneIsNominalAndCornerShifts) {
  const device::VariationSampler none(device::Variation{}, 123);
  EXPECT_DOUBLE_EQ(none.sample(5).vth_offset, 0.0);
  EXPECT_DOUBLE_EQ(none.sample(5).strength, 1.0);

  // Aggregate order: corner Vth shift, corner drive factor.
  const device::VariationSampler corner(device::Variation{0.05, 0.9}, 123);
  EXPECT_DOUBLE_EQ(corner.sample(0).vth_offset, 0.05);
  EXPECT_DOUBLE_EQ(corner.sample(0).strength, 0.9);
}

TEST(Variation, LocalSpreadMatchesSigma) {
  const double sigma = 0.030;
  const device::VariationSampler s(device::Variation::local(sigma), 2024);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double v = s.sample(static_cast<std::uint64_t>(i)).vth_offset;
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 3.0 * sigma / std::sqrt(double(n)));
  EXPECT_NEAR(stddev, sigma, sigma * 0.1);
}

TEST(Variation, SampleDrawsAreIndependentStandardNormals) {
  // sample() turns one Box–Muller pair into (vth, strength). With unit
  // Vth sigma and a strength sigma too small to reach the 0.1 floor, both
  // raw draws are recoverable: each must be N(0, 1) in its first four
  // moments, and the two must be uncorrelated.
  constexpr double kStrengthSigma = 0.01;
  const device::VariationSampler s(
      device::Variation::local(1.0, kStrengthSigma), 2026);
  constexpr int kIds = 200000;
  double m[2][4] = {};
  double cross = 0.0;
  for (int i = 0; i < kIds; ++i) {
    const device::DeviceSample d = s.sample(static_cast<std::uint64_t>(i));
    const double z[2] = {d.vth_offset, (d.strength - 1.0) / kStrengthSigma};
    for (int k = 0; k < 2; ++k) {
      const double z2 = z[k] * z[k];
      m[k][0] += z[k];
      m[k][1] += z2;
      m[k][2] += z2 * z[k];
      m[k][3] += z2 * z2;
    }
    cross += z[0] * z[1];
  }
  const double n = kIds;
  // Tolerances are about 4 standard errors of each raw moment at n draws
  // (their variances are 1, 2, 15 and 96 for a standard normal).
  for (int k = 0; k < 2; ++k) {
    EXPECT_NEAR(m[k][0] / n, 0.0, 4.0 * std::sqrt(1.0 / n)) << "draw " << k;
    EXPECT_NEAR(m[k][1] / n, 1.0, 4.0 * std::sqrt(2.0 / n)) << "draw " << k;
    EXPECT_NEAR(m[k][2] / n, 0.0, 4.0 * std::sqrt(15.0 / n)) << "draw " << k;
    EXPECT_NEAR(m[k][3] / n, 3.0, 4.0 * std::sqrt(96.0 / n)) << "draw " << k;
  }
  EXPECT_NEAR(cross / n, 0.0, 4.0 * std::sqrt(1.0 / n));
}

TEST(Variation, WorstVthIsMaxOfWindow) {
  const device::VariationSampler s(device::Variation::local(0.02), 55);
  double expect = -1.0;
  for (std::uint64_t i = 10; i < 26; ++i) {
    expect = std::max(expect, s.sample(i).vth_offset);
  }
  EXPECT_DOUBLE_EQ(s.worst_vth(10, 16), expect);
}

TEST(Variation, StrengthFloorClampsDeepTail) {
  // Huge sigma: the gaussian tail would go negative without the clamp.
  const device::VariationSampler s(device::Variation::local(0.0, 5.0), 7);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_GE(s.sample(i).strength, 0.1);
  }
}

// ---- the per-gate multiplier path ------------------------------------------

TEST(DeviceSamplePath, StrengthAndVthScaleDelay) {
  device::DelayModel model{device::Tech::umc90()};
  const double base = model.delay_seconds(0.6, 2e-15);
  // Strength is a pure current prefactor: double the drive, half the
  // delay — exactly (the sample path reuses the shared table).
  device::DeviceSample strong{0.0, 2.0};
  EXPECT_NEAR(model.delay_seconds(0.6, 2e-15, strong), base / 2.0,
              base * 1e-9);
  // A slower threshold lengthens the delay.
  device::DeviceSample slow{0.05, 1.0};
  EXPECT_GT(model.delay_seconds(0.6, 2e-15, slow), base);
  // And the sample overload agrees with the scalar path.
  EXPECT_DOUBLE_EQ(model.delay_seconds(0.6, 2e-15, slow),
                   model.delay_seconds(0.6, 2e-15, 0.05, 1.0));
}

TEST(DeviceSamplePath, GateStrengthChangesOscillation) {
  auto transitions_with = [](const device::DeviceSample& d) {
    auto ex = exp::ContextConfig::battery(0.8).build();
    sim::Wire osc(ex.kernel(), "osc", false);
    gates::CombGate inv(ex.ctx(), "inv", gates::Op::kInv, {&osc}, osc);
    // The context's only element holds the arena's first slot.
    ex.ctx().drives.set_device(0, d.vth_offset, d.strength);
    inv.touch();
    ex.kernel().run_until(sim::ns(100));
    return osc.transitions();
  };
  const auto nominal = transitions_with({0.0, 1.0});
  const auto strong = transitions_with({0.0, 2.0});
  const auto weak = transitions_with({0.08, 0.7});
  EXPECT_GT(strong, nominal + nominal / 2);  // ~2x faster ring
  EXPECT_LT(weak, nominal);
}

// ---- Workbench::replicate --------------------------------------------------

TEST(Replicate, TrialAxisIsFastestAndSeedsShareTrials) {
  exp::Workbench wb("replicate_axes");
  wb.grid().over("vdd", {0.3, 0.6});
  wb.replicate(3, 99);
  wb.columns({"vdd_V", "trial"});
  wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
    rec.row().set("vdd_V", p.get<double>("vdd")).set("trial",
                                                     p.get<int>("trial"));
  });
  const auto& params = wb.scenario_params();
  ASSERT_EQ(params.size(), 6u);
  // Replicas of a grid point are adjacent (trial fastest)...
  EXPECT_EQ(params[0].get<int>("trial"), 0);
  EXPECT_EQ(params[1].get<int>("trial"), 1);
  EXPECT_EQ(params[2].get<int>("trial"), 2);
  EXPECT_DOUBLE_EQ(params[0].get<double>("vdd"), 0.3);
  EXPECT_DOUBLE_EQ(params[3].get<double>("vdd"), 0.6);
  // ...and trial t carries the same seed at every grid point (common
  // random numbers: one virtual chip swept across the grid).
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(params[t].get<std::uint64_t>("trial_seed"),
              params[3 + t].get<std::uint64_t>("trial_seed"));
  }
  EXPECT_NE(params[0].get<std::uint64_t>("trial_seed"),
            params[1].get<std::uint64_t>("trial_seed"));
  // The seed has one owner: every scenario carries trial_seed(trial).
  for (const auto& p : params) {
    EXPECT_EQ(p.get<std::uint64_t>("trial_seed"),
              wb.trial_seed(static_cast<std::size_t>(p.get<int>("trial"))));
  }

  // A replicated workbench carries the trial axis at one trial too.
  exp::Workbench one("replicate_one");
  one.grid().over("vdd", {0.3, 0.6});
  one.replicate(1, 99);
  one.columns({"vdd_V"});
  one.run([](const exp::ParamSet& p, exp::Recorder& rec) {
    rec.row().set("vdd_V", p.get<double>("vdd"));
  });
  ASSERT_EQ(one.scenario_params().size(), 2u);
  for (const auto& p : one.scenario_params()) {
    EXPECT_EQ(p.get<int>("trial"), 0);
    EXPECT_EQ(p.get<std::uint64_t>("trial_seed"), one.trial_seed(0));
  }
  EXPECT_EQ(one.trial_seed(0), wb.trial_seed(0));
}

TEST(Replicate, CsvByteIdenticalAcrossThreadCounts) {
  auto run_with = [](unsigned threads) {
    exp::Workbench wb("replicate_threads");
    wb.threads(threads);
    wb.grid().over("vdd", {0.3, 0.5, 0.8});
    wb.replicate(5, 4242);
    wb.columns({"vdd_V", "trial", "sample_mv"});
    const device::Variation var = device::Variation::local(0.02, 0.03);
    wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
      const device::VariationSampler s(var,
                                       p.get<std::uint64_t>("trial_seed"));
      rec.row()
          .set("vdd_V", p.get<double>("vdd"))
          .set("trial", p.get<int>("trial"))
          .set("sample_mv", s.sample(3).vth_offset * 1e3, 6);
    });
    return wb.report().to_csv();
  };
  const std::string t1 = run_with(1);
  EXPECT_EQ(t1, run_with(4));
  EXPECT_EQ(t1, run_with(7));
  // And a re-run with the same (base_seed, n_trials) reproduces exactly.
  EXPECT_EQ(t1, run_with(1));
}

TEST(Replicate, ContextConfigAdoptsTrialSeed) {
  exp::ParamSet p;
  p.set("vdd", 0.5);
  // Non-replicated params leave the config untouched.
  EXPECT_EQ(exp::ContextConfig().trial(p).trial_seed_value(), 0u);
  p.set("trial", 2).set("trial_seed", 777);
  EXPECT_EQ(exp::ContextConfig::battery(0.5).trial(p).trial_seed_value(),
            777u);
}

TEST(Replicate, HarvestedSupplyReKeysPerTrial) {
  auto voltage_after = [](std::uint64_t trial_seed) {
    auto cfg = exp::SupplyConfig::harvested(
        exp::SupplyConfig::storage_cap(2e-6, 0.3),
        supply::HarvesterProfile::vibration_200uw(), /*seed=*/11);
    auto ex = exp::ContextConfig::with(cfg).trial_seed(trial_seed).build();
    ex.kernel().run_until(sim::ms(5));
    return ex.supply().voltage();
  };
  // Same trial → bit-identical harvest; different trials → different
  // stochastic environment; trial 0 keeps the base description's stream.
  EXPECT_DOUBLE_EQ(voltage_after(1), voltage_after(1));
  EXPECT_NE(voltage_after(1), voltage_after(2));
  EXPECT_DOUBLE_EQ(voltage_after(0), voltage_after(0));
}

// ---- Aggregate -------------------------------------------------------------

/// Feed every row of `in` through a sink bound to its headers.
analysis::Table reduce(const analysis::Aggregate& spec,
                       const analysis::Table& in) {
  analysis::Aggregate::Sink sink = spec.sink(in.headers());
  for (std::size_t r = 0; r < in.row_count(); ++r) sink.consume(in.row(r));
  return sink.finish();
}

TEST(Aggregate, ReducesStatsAndYieldPerGroup) {
  analysis::Table in({"vdd", "trial", "x", "ok"});
  // Group "0.3": x = 1..4; ok = 1,1,0,1 (75%).
  in.add_row({"0.3", "0", "1", "1"});
  in.add_row({"0.3", "1", "2", "1"});
  in.add_row({"0.3", "2", "3", "0"});
  in.add_row({"0.3", "3", "4", "1"});
  // Group "0.6": constant x; all pass.
  in.add_row({"0.6", "0", "5", "1"});
  in.add_row({"0.6", "1", "5", "1"});

  const analysis::Table out =
      reduce(analysis::Aggregate({"vdd"}).stats("x").yield("ok"), in);
  ASSERT_EQ(out.row_count(), 2u);
  const auto& h = out.headers();
  const std::vector<std::string> expect_headers = {
      "vdd",  "trials", "x_mean",  "x_stddev", "x_p5",
      "x_p50", "x_p95",  "ok_yield"};
  EXPECT_EQ(h, expect_headers);
  EXPECT_EQ(out.row(0)[0], "0.3");
  EXPECT_EQ(out.row(0)[1], "4");
  EXPECT_EQ(out.row(0)[2], "2.5");     // mean of 1..4
  EXPECT_EQ(out.row(0)[5], "2.5");     // p50
  EXPECT_EQ(out.row(0)[7], "0.75");    // yield
  EXPECT_EQ(out.row(1)[0], "0.6");
  EXPECT_EQ(out.row(1)[2], "5");
  EXPECT_EQ(out.row(1)[3], "0");       // stddev of a constant
  EXPECT_EQ(out.row(1)[7], "1");
}

TEST(Aggregate, SkipsUnparsableCellsAndKeepsGroupOrder) {
  analysis::Table in({"k", "x"});
  in.add_row({"b", "2"});
  in.add_row({"a", "-"});
  in.add_row({"b", "4"});
  in.add_row({"a", "-"});
  const analysis::Table out = reduce(analysis::Aggregate({"k"}).stats("x"), in);
  ASSERT_EQ(out.row_count(), 2u);
  EXPECT_EQ(out.row(0)[0], "b");  // first appearance first
  EXPECT_EQ(out.row(0)[2], "3");  // mean of 2, 4
  EXPECT_EQ(out.row(1)[0], "a");
  EXPECT_EQ(out.row(1)[2], "-");  // no parsable samples
}

TEST(Aggregate, UnknownColumnThrows) {
  analysis::Table in({"a"});
  EXPECT_THROW(analysis::Aggregate({"a"}).stats("nope").sink(in.headers()),
               std::invalid_argument);
  EXPECT_THROW(analysis::Aggregate({"nope"}).sink(in.headers()),
               std::invalid_argument);
}

}  // namespace
}  // namespace emc
