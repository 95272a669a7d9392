// Asynchronous-library tests: handshakes, dual-rail discipline, the
// Fig. 9 ripple counter's exact decode property, the Fig. 4 dual-rail
// counter's speed-independence under constant / ramped / AC supplies,
// the bundled counter's calibrated-voltage correctness and low-Vdd
// failure, and the Muller ring's elasticity.
#include <gtest/gtest.h>

#include <cmath>

#include "async/bundled.hpp"
#include "async/checker.hpp"
#include "async/counter.hpp"
#include "async/dualrail.hpp"
#include "async/handshake.hpp"
#include "async/pipeline.hpp"
#include "device/delay_model.hpp"
#include "gates/energy_meter.hpp"
#include "supply/ac_supply.hpp"
#include "supply/battery.hpp"

namespace emc::async {
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

// ---- handshake ------------------------------------------------------------

TEST(Handshake, SourceSinkCompleteCycles) {
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  Channel ch{&req, &ack};
  HandshakeChecker checker(req, ack);
  HandshakeSource src(f.ctx, "src", ch);
  HandshakeSink sink(f.ctx, "sink", ch, 2.0);
  bool done = false;
  src.start(25, [&] { done = true; });
  f.kernel.run_until(sim::kTimeMax);
  EXPECT_TRUE(done);
  EXPECT_EQ(src.completed(), 25u);
  EXPECT_EQ(checker.cycles_observed(), 25u);
  EXPECT_EQ(checker.violations(), 0u);
  EXPECT_GT(src.last_cycle_seconds(), 0.0);
}

TEST(HandshakeChecker, FlagsProtocolViolation) {
  Fixture f;
  sim::Wire req(f.kernel, "req", false), ack(f.kernel, "ack", false);
  HandshakeChecker checker(req, ack);
  ack.set(true);  // ack before req: violation
  EXPECT_EQ(checker.violations(), 1u);
}

// ---- dual-rail word ----------------------------------------------------------

TEST(DualRail, StatesAndDecode) {
  EXPECT_EQ(rail_state(false, false), RailState::kNull);
  EXPECT_EQ(rail_state(true, false), RailState::kValid1);
  EXPECT_EQ(rail_state(false, true), RailState::kValid0);
  EXPECT_EQ(rail_state(true, true), RailState::kIllegal);

  Fixture f;
  sim::Wire t0(f.kernel, "t0", false), f0(f.kernel, "f0", false);
  sim::Wire t1(f.kernel, "t1", false), f1(f.kernel, "f1", false);
  DualRailWord w({{&t0, &f0}, {&t1, &f1}});
  EXPECT_EQ(w.bit_state(0), RailState::kNull);
  EXPECT_FALSE(w.value().has_value());
  f0.set(true);  // bit 0 = 0
  EXPECT_FALSE(w.value().has_value());  // bit 1 still NULL
  t1.set(true);  // bit 1 = 1
  EXPECT_EQ(w.value().value(), 2u);
  t1.set(false);
  f1.set(true);  // bit 1 = 0
  EXPECT_EQ(w.value().value(), 0u);
  t0.set(true);  // bit 0 illegal
  EXPECT_EQ(w.bit_state(0), RailState::kIllegal);
  EXPECT_FALSE(w.value().has_value());
}

TEST(DualRailChecker, CountsIllegalAndAlternation) {
  Fixture f;
  sim::Wire t0(f.kernel, "t0", false), f0(f.kernel, "f0", false);
  std::vector<gates::DualRailWire> bits{{&t0, &f0}};
  DualRailChecker chk(bits);
  t0.set(true);   // NULL -> VALID1: fine
  f0.set(true);   // VALID1 -> ILLEGAL
  EXPECT_EQ(chk.illegal_states(), 1u);
  t0.set(false);  // ILLEGAL -> VALID0: counts as entered-without-spacer
  EXPECT_EQ(chk.alternation_violations(), 1u);
  f0.set(false);  // back to NULL
  t0.set(true);   // NULL -> VALID1: clean
  EXPECT_EQ(chk.total_violations(), 2u);
  EXPECT_EQ(chk.valid_words_seen(), 3u);
}

// ---- Fig. 9 toggle ripple counter ------------------------------------------------

// Property: decode() reconstructs the served-transition count from
// flip-flop states alone, for any count. (Parameterized sweep.)
class RippleDecode : public ::testing::TestWithParam<int> {};

TEST_P(RippleDecode, DecodeMatchesGroundTruth) {
  Fixture f;
  sim::Wire in(f.kernel, "in", false);
  ToggleRippleCounter ctr(f.ctx, "ctr", 8, &in);
  const int edges = GetParam();
  for (int i = 1; i <= edges; ++i) {
    in.set((i % 2) == 1);
    // Drain before the next edge: every event served.
    f.kernel.run_until(sim::kTimeMax);
  }
  EXPECT_EQ(ctr.transitions_served(), static_cast<std::uint64_t>(edges));
  EXPECT_EQ(ctr.decode(), static_cast<std::uint64_t>(edges) % 256u);
}

INSTANTIATE_TEST_SUITE_P(Counts, RippleDecode,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 16, 31, 63, 100,
                                           255, 256, 300));

TEST(RippleCounter, StageRatesHalve) {
  Fixture f;
  ToggleRippleCounter ctr(f.ctx, "ctr", 4);
  ctr.start();
  f.kernel.run_until(sim::ns(400));
  ctr.stop();
  f.kernel.run_until(sim::ns(500));
  const auto s0 = ctr.stage(0).fires();
  const auto s1 = ctr.stage(1).fires();
  const auto s2 = ctr.stage(2).fires();
  EXPECT_GT(s0, 100u);
  EXPECT_NEAR(double(s1) / double(s0), 0.5, 0.05);
  EXPECT_NEAR(double(s2) / double(s1), 0.5, 0.10);
}

TEST(RippleCounter, OscillatorRateTracksVdd) {
  auto cycles_at = [](double vdd) {
    Fixture f(vdd);
    ToggleRippleCounter ctr(f.ctx, "ctr", 4);
    ctr.start();
    f.kernel.run_until(sim::us(1));
    return ctr.transitions_served();
  };
  const auto hi = cycles_at(1.0);
  const auto lo = cycles_at(0.5);
  // Inverter delay ratio 0.5 V vs 1 V sets the rate ratio.
  device::DelayModel m{device::Tech::umc90()};
  const double expect =
      m.inverter_delay_seconds(0.5) / m.inverter_delay_seconds(1.0);
  EXPECT_NEAR(double(hi) / double(lo), expect, expect * 0.15);
}

// ---- Fig. 4 dual-rail counter -----------------------------------------------------

TEST(DualRailCounter, CountsCorrectlyAtNominal) {
  Fixture f;
  DualRailCounter ctr(f.ctx, "drc", 2);
  DualRailChecker chk(ctr.rails().bits());
  ctr.start();
  f.kernel.run_until(sim::us(1));
  EXPECT_GT(ctr.count(), 100u);
  EXPECT_EQ(ctr.code_errors(), 0u);
  EXPECT_EQ(chk.illegal_states(), 0u);
  EXPECT_EQ(chk.alternation_violations(), 0u);
  // Park the ring cleanly (state commits on done-), then compare.
  ctr.stop();
  f.kernel.run_until(f.kernel.now() + sim::us(1));
  EXPECT_EQ(ctr.state(), ctr.count() % 4u);
}

class DualRailAtVdd : public ::testing::TestWithParam<double> {};

TEST_P(DualRailAtVdd, SpeedIndependentAtAnyVoltage) {
  const double vdd = GetParam();
  Fixture f(vdd);
  DualRailCounter ctr(f.ctx, "drc", 2);
  DualRailChecker chk(ctr.rails().bits());
  ctr.start();
  f.kernel.run_until(sim::us(vdd < 0.3 ? 50 : 5));
  EXPECT_GT(ctr.count(), 10u) << "no progress at " << vdd;
  EXPECT_EQ(ctr.code_errors(), 0u) << "mis-count at " << vdd;
  EXPECT_EQ(chk.total_violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(VddSweep, DualRailAtVdd,
                         ::testing::Values(0.16, 0.2, 0.25, 0.3, 0.4, 0.6,
                                           0.8, 1.0, 1.1));

TEST(DualRailCounter, SurvivesAcSupply) {
  // The paper's headline demo: 200 mV +/- 100 mV at 1 MHz. The counter
  // stalls in the troughs (V < 140 mV) and resumes, never mis-counting.
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::AcSupply ac(kernel, "ac", 0.2, 0.1, 1e6);
  gates::EnergyMeter meter(kernel, device::Tech::umc90(), &ac);
  gates::Context ctx{kernel, model, ac, meter};
  DualRailCounter ctr(ctx, "drc", 2);
  DualRailChecker chk(ctr.rails().bits());
  ctr.start();
  kernel.run_until(sim::us(50));  // 50 AC cycles
  EXPECT_GT(ctr.count(), 20u);
  EXPECT_EQ(ctr.code_errors(), 0u);
  EXPECT_EQ(chk.total_violations(), 0u);
}

TEST(DualRailCounter, WiderCounterStillCorrect) {
  Fixture f(0.5);
  DualRailCounter ctr(f.ctx, "drc", 6);
  ctr.start();
  f.kernel.run_until(sim::us(10));
  EXPECT_GT(ctr.count(), 50u);
  EXPECT_EQ(ctr.code_errors(), 0u);
  ctr.stop();
  f.kernel.run_until(f.kernel.now() + sim::us(5));
  EXPECT_EQ(ctr.state(), ctr.count() % 64u);
}

TEST(DualRailCounter, EnergyPerOpExceedsBundled) {
  // Design 1 pays for its robustness: more transitions per increment.
  Fixture f1, f2;
  DualRailCounter drc(f1.ctx, "drc", 2);
  drc.start();
  f1.kernel.run_until(sim::us(1));
  BundledCounter bc(f2.ctx, "bc", BundledParams{});
  bc.start();
  f2.kernel.run_until(sim::us(1));
  const double e_dr = f1.meter.dynamic_energy() / double(drc.count());
  const double e_b = f2.meter.dynamic_energy() / double(bc.count());
  EXPECT_GT(e_dr, e_b * 1.2) << "dual-rail should cost more per op";
}

// ---- bundled counter -------------------------------------------------------------

TEST(BundledCounter, CorrectAtCalibrationVoltage) {
  Fixture f(1.0);
  BundledCounter ctr(f.ctx, "bc", BundledParams{});
  ctr.start();
  f.kernel.run_until(sim::us(1));
  EXPECT_GT(ctr.count(), 100u);
  EXPECT_EQ(ctr.errors(), 0u);
}

TEST(BundledCounter, FailsBelowCriticalVdd) {
  // The Vth-mismatch mechanism: at low Vdd the datapath outruns its
  // margin and captures garbage.
  Fixture f(0.22);
  BundledCounter ctr(f.ctx, "bc", BundledParams{});
  ctr.start();
  f.kernel.run_until(sim::us(200));
  ASSERT_GT(ctr.count(), 10u);
  EXPECT_GT(ctr.errors(), ctr.count() / 4) << "expected heavy mistiming";
}

TEST(BundledCounter, MarginDelaysFailureOnset) {
  auto error_rate_at = [](double vdd, double margin) {
    Fixture f(vdd);
    BundledParams p;
    p.margin = margin;
    BundledCounter ctr(f.ctx, "bc", p);
    ctr.start();
    f.kernel.run_until(sim::us(100));
    return ctr.count() > 0 ? double(ctr.errors()) / double(ctr.count()) : 1.0;
  };
  // A fatter margin keeps the design alive further down.
  EXPECT_GT(error_rate_at(0.30, 1.1), error_rate_at(0.30, 2.5));
}

// ---- Muller ring ------------------------------------------------------------------

TEST(MullerRing, TokensCirculate) {
  Fixture f;
  MullerRing ring(f.ctx, "ring", 6, 2);
  ring.start();
  f.kernel.run_until(sim::us(1));
  EXPECT_GT(ring.ops(), 100u);
}

TEST(MullerRing, ThroughputScalesWithVdd) {
  auto ops_at = [](double vdd) {
    Fixture f(vdd);
    MullerRing ring(f.ctx, "ring", 6, 2);
    ring.start();
    f.kernel.run_until(sim::us(2));
    return ring.ops();
  };
  EXPECT_GT(ops_at(1.0), 3 * ops_at(0.4));
}

TEST(MullerRing, StallsWithoutPowerResumesAfter) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::AcSupply ac(kernel, "ac", 0.18, 0.08, 1e6);
  gates::EnergyMeter meter(kernel, device::Tech::umc90(), &ac);
  gates::Context ctx{kernel, model, ac, meter};
  MullerRing ring(ctx, "ring", 6, 2);
  ring.start();
  kernel.run_until(sim::us(30));
  EXPECT_GT(ring.ops(), 5u);  // progress despite periodic brown-outs
}

}  // namespace
}  // namespace emc::async
