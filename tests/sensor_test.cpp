// Sensor tests: charge-to-digital converter (Fig. 9/11 physics —
// charge-count proportionality, code monotonicity), ring-oscillator
// baseline, reference-free sensor (Fig. 12 — code anchors, monotone
// inversion, ~10 mV accuracy), calibration tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "analysis/stats.hpp"
#include "gates/energy_meter.hpp"
#include "sensor/calibration.hpp"
#include "sensor/charge_to_digital.hpp"
#include "sensor/reference_free.hpp"
#include "sensor/ring_oscillator.hpp"
#include "supply/battery.hpp"

namespace emc::sensor {
namespace {

struct Fixture {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::Battery supply;
  gates::EnergyMeter meter;
  gates::Context ctx;

  explicit Fixture(double vdd = 1.0)
      : supply(kernel, "vdd", vdd),
        meter(kernel, device::Tech::umc90(), &supply),
        ctx{kernel, model, supply, meter} {}
};

// ---- calibration table -------------------------------------------------------

TEST(CalibrationTable, LookupInterpolatesAndClamps) {
  CalibrationTable t;
  t.add(10.0, 1.0);
  t.add(20.0, 0.5);
  t.add(30.0, 0.25);
  EXPECT_DOUBLE_EQ(t.lookup(10.0), 1.0);
  EXPECT_DOUBLE_EQ(t.lookup(15.0), 0.75);
  EXPECT_DOUBLE_EQ(t.lookup(5.0), 1.0);    // clamp low code
  EXPECT_DOUBLE_EQ(t.lookup(99.0), 0.25);  // clamp high code
}

TEST(CalibrationTable, AccuracyReport) {
  CalibrationTable t;
  for (double c = 0; c <= 10; ++c) t.add(c, c / 10.0);
  AccuracyReport r = evaluate_accuracy(t, {{2.5, 0.25}, {7.5, 0.76}});
  EXPECT_NEAR(r.max_abs_error_v, 0.01, 1e-12);
  EXPECT_EQ(r.samples, 2u);
}

// ---- charge-to-digital -----------------------------------------------------------

TEST(ChargeToDigital, ConvertsAndStops) {
  Fixture f;
  C2dParams p;
  p.sample_cap_f = 20e-12;  // small cap: quick test
  ChargeToDigitalConverter c2d(f.ctx, "c2d", p);
  std::optional<ConversionResult> res;
  c2d.convert(0.8, [&](const ConversionResult& r) { res = r; });
  f.kernel.run_until(sim::ms(5));
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->code, 100u);
  EXPECT_GT(res->transitions, res->code);
  EXPECT_LT(res->residual_v, f.model.tech().vmin_operate + 0.01);
  EXPECT_GT(res->charge_used_c, 0.0);
  // Closed-form cross-check: logarithmic discharge law within 30%.
  const double expect = c2d.expected_transitions(0.8);
  EXPECT_NEAR(double(res->transitions), expect, expect * 0.3);
}

TEST(ChargeToDigital, CodeMonotoneInVin) {
  // Fig. 11: count rises monotonically with the sampled voltage.
  Fixture f;
  C2dParams p;
  p.sample_cap_f = 20e-12;
  ChargeToDigitalConverter c2d(f.ctx, "c2d", p);
  std::vector<std::uint64_t> codes;
  for (double vin : {0.3, 0.5, 0.7, 0.9}) {
    std::optional<ConversionResult> res;
    c2d.convert(vin, [&](const ConversionResult& r) { res = r; });
    f.kernel.run_until(f.kernel.now() + sim::ms(5));
    ASSERT_TRUE(res.has_value()) << vin;
    codes.push_back(res->code);
  }
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_GT(codes[i], codes[i - 1]);
  }
}

TEST(ChargeToDigital, TransitionsFollowDischargeLaw) {
  // "strong proportionality between the amount of charge taken from the
  // capacitor and the number of transitions": every transition takes
  // exactly c*V of charge, so N/Q must equal the analytic value
  // ln(V0/Vres) / (c_mean * (V0 - Vres)) for each sampled voltage.
  Fixture f;
  C2dParams p;
  p.sample_cap_f = 20e-12;
  ChargeToDigitalConverter c2d(f.ctx, "c2d", p);
  for (double vin : {0.5, 1.0}) {
    std::optional<ConversionResult> res;
    c2d.convert(vin, [&](const ConversionResult& r) { res = r; });
    f.kernel.run_until(f.kernel.now() + sim::ms(5));
    ASSERT_TRUE(res.has_value());
    const double measured = double(res->transitions) / res->charge_used_c;
    const double v_res = res->residual_v;
    const double analytic =
        std::log(vin / v_res) / (vin - v_res);  // 1/c_mean factored out
    // measured * c_mean should equal analytic: solve c_mean and check it
    // is voltage-independent (the proportionality constant).
    const double c_mean = analytic / measured;
    EXPECT_NEAR(c_mean, 4.67 * f.model.tech().c_inv,
                4.67 * f.model.tech().c_inv * 0.25)
        << "at vin=" << vin;
  }
}

TEST(ChargeToDigital, BelowVminYieldsNothing) {
  Fixture f;
  C2dParams p;
  p.sample_cap_f = 20e-12;
  ChargeToDigitalConverter c2d(f.ctx, "c2d", p);
  std::optional<ConversionResult> res;
  c2d.convert(0.10, [&](const ConversionResult& r) { res = r; });
  f.kernel.run_until(sim::ms(2));
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->code, 0u);
}

TEST(ChargeToDigital, LargerCapCountsMore) {
  Fixture f;
  C2dParams small;
  small.sample_cap_f = 10e-12;
  C2dParams large;
  large.sample_cap_f = 40e-12;
  ChargeToDigitalConverter a(f.ctx, "c2d_a", small);
  ChargeToDigitalConverter b(f.ctx, "c2d_b", large);
  std::optional<ConversionResult> ra, rb;
  a.convert(0.8, [&](const ConversionResult& r) { ra = r; });
  f.kernel.run_until(f.kernel.now() + sim::ms(5));
  b.convert(0.8, [&](const ConversionResult& r) { rb = r; });
  f.kernel.run_until(f.kernel.now() + sim::ms(20));
  ASSERT_TRUE(ra && rb);
  EXPECT_NEAR(double(rb->code) / double(ra->code), 4.0, 0.8);
}

// ---- ring oscillator sensor --------------------------------------------------------

TEST(RingOscillator, CodeTracksVdd) {
  auto code_at = [](double vdd) {
    Fixture f(vdd);
    RingOscillatorSensor sensor(f.ctx, "ro", RingOscParams{});
    std::uint64_t code = 0;
    sensor.measure([&](std::uint64_t c) { code = c; });
    f.kernel.run_until(sim::us(3));
    return code;
  };
  const auto hi = code_at(1.0);
  const auto mid = code_at(0.5);
  const auto lo = code_at(0.3);
  EXPECT_GT(hi, mid);
  EXPECT_GT(mid, lo);
  EXPECT_GT(lo, 0u);
}

TEST(RingOscillator, MatchesExpectedFrequency) {
  Fixture f(0.8);
  RingOscillatorSensor sensor(f.ctx, "ro", RingOscParams{});
  std::uint64_t code = 0;
  sensor.measure([&](std::uint64_t c) { code = c; });
  f.kernel.run_until(sim::us(3));
  const double expect = sensor.expected_code(0.8);
  EXPECT_NEAR(double(code), expect, expect * 0.25);
}

TEST(RingOscillator, DestroyBeforeWindowClosesIsSafe) {
  // Regression: measure() schedules the window-close lambda capturing
  // `this`; destroying the sensor before the window elapsed used to
  // leave that event to fire into freed memory. The closure now holds a
  // weak liveness token and returns without touching the sensor once
  // it is gone.
  //
  // The fixture sits below vmin_operate so the ring gates park without
  // scheduling events of their own — the window closure is the only
  // thing in the queue, which is exactly the object under test.
  Fixture f(0.10);
  bool fired = false;
  {
    RingOscillatorSensor sensor(f.ctx, "ro", RingOscParams{});
    sensor.measure([&](std::uint64_t) { fired = true; });
    EXPECT_TRUE(sensor.measuring());
  }  // destroyed with the gate window still pending
  f.kernel.run_until(sim::us(3));  // would have fired the stale closure
  EXPECT_FALSE(fired);
}

TEST(RingOscillator, ReArmsAfterCompletion) {
  // A completed measurement must leave the sensor ready for the next
  // one.
  Fixture f(0.8);
  RingOscillatorSensor sensor(f.ctx, "ro", RingOscParams{});
  std::vector<std::uint64_t> codes;
  sensor.measure([&](std::uint64_t c) { codes.push_back(c); });
  f.kernel.run_until(sim::us(3));
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_FALSE(sensor.measuring());
  sensor.measure([&](std::uint64_t c) { codes.push_back(c); });
  f.kernel.run_until(sim::us(6));
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_GT(codes[1], 0u);
  EXPECT_NEAR(double(codes[1]), double(codes[0]), double(codes[0]) * 0.1);
}

// ---- reference-free sensor -----------------------------------------------------------

TEST(ReferenceFree, CodeAnchorsMatchFig5) {
  // The sensor code *is* the Fig. 5 ratio: ~50 at 1 V, ~158 at 190 mV.
  auto code_at = [](double vdd) {
    Fixture f(vdd);
    RefFreeParams p;
    ReferenceFreeSensor sensor(f.ctx, "rf", p);
    std::optional<RefFreeReading> r;
    sensor.measure([&](const RefFreeReading& x) { r = x; });
    f.kernel.run_until(sim::ms(20));
    return r;
  };
  const auto hi = code_at(1.0);
  ASSERT_TRUE(hi && hi->valid);
  EXPECT_NEAR(double(hi->code), 50.0, 4.0);
  const auto lo = code_at(0.19);
  ASSERT_TRUE(lo && lo->valid);
  EXPECT_NEAR(double(lo->code), 158.0, 10.0);
}

TEST(ReferenceFree, CodeMonotoneOverRange) {
  std::vector<std::uint64_t> codes;
  for (double v = 0.22; v <= 1.01; v += 0.13) {
    Fixture f(v);
    ReferenceFreeSensor sensor(f.ctx, "rf", RefFreeParams{});
    std::optional<RefFreeReading> r;
    sensor.measure([&](const RefFreeReading& x) { r = x; });
    f.kernel.run_until(sim::ms(20));
    ASSERT_TRUE(r && r->valid) << v;
    codes.push_back(r->code);
  }
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LT(codes[i], codes[i - 1]);  // code falls as Vdd rises
  }
}

TEST(ReferenceFree, TenMilliVoltAccuracyOverPaperRange) {
  // Calibrate on a coarse grid, verify on an offset grid; the paper
  // claims ~10 mV accuracy over 0.2-1 V. Allow 15 mV for quantization.
  CalibrationTable table;
  auto code_at = [](double vdd) -> std::optional<double> {
    Fixture f(vdd);
    ReferenceFreeSensor sensor(f.ctx, "rf", RefFreeParams{});
    std::optional<RefFreeReading> r;
    sensor.measure([&](const RefFreeReading& x) { r = x; });
    f.kernel.run_until(sim::ms(30));
    if (!r || !r->valid) return std::nullopt;
    return double(r->code);
  };
  std::vector<double> codes;  // in rising-voltage order
  for (double v = 0.20; v <= 1.001; v += 0.04) {
    auto c = code_at(v);
    ASSERT_TRUE(c.has_value()) << v;
    table.add(*c, v);
    codes.push_back(*c);
  }
  // A unique inverse needs the code monotone in voltage (equal codes are
  // the quantization step, not a violation).
  ASSERT_TRUE(std::is_sorted(codes.begin(), codes.end()) ||
              std::is_sorted(codes.rbegin(), codes.rend()));
  std::vector<std::pair<double, double>> verification;
  for (double v = 0.22; v <= 0.981; v += 0.08) {
    auto c = code_at(v);
    ASSERT_TRUE(c.has_value()) << v;
    verification.emplace_back(*c, v);
  }
  const AccuracyReport rep = evaluate_accuracy(table, verification);
  // Paper: ~10 mV accuracy. Our model matches in the mean; the worst
  // case sits at the top of the range, where one ruler tap is worth
  // ~40 mV (the Fig. 5 ratio flattens) — see EXPERIMENTS.md.
  EXPECT_LT(rep.mean_abs_error_v, 0.010);
  EXPECT_LT(rep.max_abs_error_v, 0.025);
}

TEST(ReferenceFree, InvalidBelowSensingFloor) {
  Fixture f(0.16);  // below a live 64-cell column's sensable floor
  RefFreeParams floor_params;
  floor_params.effective_leak_cells = 64;  // racing a live array column
  ReferenceFreeSensor sensor(f.ctx, "rf", floor_params);
  std::optional<RefFreeReading> r;
  sensor.measure([&](const RefFreeReading& x) { r = x; });
  f.kernel.run_until(sim::ms(50));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->valid);
}

TEST(ReferenceFree, RepeatedMeasurementsConsistent) {
  Fixture f(0.5);
  ReferenceFreeSensor sensor(f.ctx, "rf", RefFreeParams{});
  std::vector<std::uint64_t> codes;
  std::function<void()> next = [&] {
    if (codes.size() >= 4) return;
    sensor.measure([&](const RefFreeReading& r) {
      ASSERT_TRUE(r.valid);
      codes.push_back(r.code);
      next();
    });
  };
  next();
  f.kernel.run_until(sim::ms(10));
  ASSERT_EQ(codes.size(), 4u);
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_NEAR(double(codes[i]), double(codes[0]), 2.0);
  }
}

TEST(ReferenceFree, MismatchAddsBoundedNoise) {
  // Monte-Carlo: with 10 mV sigma on ruler inverters and the cell, the
  // code at a fixed voltage spreads but stays within a few taps. 64 seeds:
  // an 8-seed spread swings by several taps from draw to draw, so the
  // bound was passing by luck (the true spread is ~9–11 taps).
  analysis::Accumulator acc;
  for (int seed = 1; seed <= 64; ++seed) {
    sim::Rng rng(seed);
    Fixture f(0.5);
    RefFreeParams p;
    p.ruler_vth_sigma = 0.010;
    p.cell_vth_offset = rng.gaussian(0.0, 0.010);
    ReferenceFreeSensor sensor(f.ctx, "rf", p, &rng);
    std::optional<RefFreeReading> r;
    sensor.measure([&](const RefFreeReading& x) { r = x; });
    f.kernel.run_until(sim::ms(20));
    ASSERT_TRUE(r && r->valid);
    acc.add(double(r->code));
  }
  EXPECT_GT(acc.stddev(), 0.0);    // noise exists
  EXPECT_LT(acc.stddev(), 15.0);   // but bounded (~<= 15 taps)
}

}  // namespace
}  // namespace emc::sensor
