// Device-model physics tests, including the paper's Fig. 5 calibration
// anchors (SRAM read = ~50 inverter delays at 1 V, ~158 at 190 mV).
#include <gtest/gtest.h>

#include <cmath>

#include "device/delay_model.hpp"
#include "device/delay_table.hpp"
#include "device/leakage.hpp"
#include "device/tech.hpp"

namespace emc::device {
namespace {

class DelayModelTest : public ::testing::Test {
 protected:
  Tech tech = Tech::umc90();
  DelayModel model{Tech::umc90()};
};

TEST_F(DelayModelTest, InverterDelayAt1VIsCalibrated) {
  // DESIGN.md anchor: ~40 ps FO4-class inverter at 1 V.
  EXPECT_NEAR(model.inverter_delay_seconds(1.0), 40e-12, 2e-12);
}

TEST_F(DelayModelTest, DriveCurrentStrongInversionQuadratic) {
  // Far above threshold, EKV approaches ((V-Vth)/(2nVT))^2: doubling the
  // overdrive roughly quadruples the current.
  const double i1 = model.drive_current(tech.vth_logic + 0.2);
  const double i2 = model.drive_current(tech.vth_logic + 0.4);
  EXPECT_NEAR(i2 / i1, 4.0, 0.6);
}

TEST_F(DelayModelTest, DriveCurrentSubthresholdExponential) {
  // Below threshold the current falls ~e per n*VT = 39 mV.
  const double i1 = model.drive_current(0.20);
  const double i2 = model.drive_current(0.20 - tech.subthreshold_n *
                                                   tech.thermal_vt);
  EXPECT_NEAR(i1 / i2, std::exp(1.0), 0.35);
}

TEST_F(DelayModelTest, DelayMonotonicallyImprovesWithVdd) {
  double prev = model.inverter_delay_seconds(0.15);
  for (double v = 0.20; v <= 1.1; v += 0.05) {
    const double d = model.inverter_delay_seconds(v);
    EXPECT_LT(d, prev) << "at " << v;
    prev = d;
  }
}

TEST_F(DelayModelTest, DelaySpansThreeDecades) {
  const double slow = model.inverter_delay_seconds(0.15);
  const double fast = model.inverter_delay_seconds(1.0);
  EXPECT_GT(slow / fast, 500.0);
  EXPECT_LT(slow / fast, 100000.0);
}

TEST_F(DelayModelTest, BelowVminNotOperational) {
  EXPECT_FALSE(model.operational(tech.vmin_operate - 0.01));
  EXPECT_TRUE(model.operational(tech.vmin_operate));
  EXPECT_TRUE(std::isinf(model.delay_seconds(0.10, tech.c_inv)));
  EXPECT_EQ(model.delay(0.10, tech.c_inv), sim::kTimeMax);
}

TEST_F(DelayModelTest, SwitchingEnergyIsCVSquared) {
  EXPECT_DOUBLE_EQ(model.switching_energy(1.0, 2e-15), 2e-15);
  EXPECT_DOUBLE_EQ(model.switching_energy(0.5, 2e-15), 0.5e-15);
  EXPECT_DOUBLE_EQ(model.switching_charge(0.5, 2e-15), 1e-15);
}

TEST_F(DelayModelTest, Fig5AnchorAt1V) {
  // Paper: "at 1V Vdd the delay of SRAM reading is equal to 50 inverters".
  EXPECT_NEAR(model.sram_delay_in_inverters(1.0), 50.0, 2.5);
}

TEST_F(DelayModelTest, Fig5AnchorAt190mV) {
  // Paper: "at 190mV the delay becomes equal to 158 inverters".
  // Modelled mechanism (elevated cell-stack threshold) lands within 5%.
  EXPECT_NEAR(model.sram_delay_in_inverters(0.19), 158.0, 8.0);
}

TEST_F(DelayModelTest, Fig5RatioMonotoneDecreasingInVdd) {
  double prev = model.sram_delay_in_inverters(0.16);
  for (double v = 0.20; v <= 1.1; v += 0.05) {
    const double r = model.sram_delay_in_inverters(v);
    EXPECT_LT(r, prev) << "at " << v;
    prev = r;
  }
}

TEST_F(DelayModelTest, VthOffsetSlowsGate) {
  EXPECT_GT(model.delay_seconds(0.5, tech.c_inv, 0.05),
            model.delay_seconds(0.5, tech.c_inv, 0.0));
}

TEST_F(DelayModelTest, StrengthSpeedsGate) {
  EXPECT_NEAR(model.delay_seconds(0.8, tech.c_inv, 0.0, 2.0) * 2.0,
              model.delay_seconds(0.8, tech.c_inv, 0.0, 1.0), 1e-15);
}

TEST_F(DelayModelTest, CornersShiftDelay) {
  DelayModel slow{Tech::umc90_slow()};
  DelayModel fast{Tech::umc90_fast()};
  EXPECT_GT(slow.inverter_delay_seconds(0.5),
            model.inverter_delay_seconds(0.5));
  EXPECT_LT(fast.inverter_delay_seconds(0.5),
            model.inverter_delay_seconds(0.5));
}

TEST(LeakageModel, ScalesWithWidthAndDibl) {
  Tech tech = Tech::umc90();
  LeakageModel leak(tech);
  EXPECT_DOUBLE_EQ(leak.current(1.0, 2.0), 2.0 * leak.current(1.0, 1.0));
  // DIBL: leakage shrinks as Vdd drops.
  EXPECT_LT(leak.current(0.4, 1.0), leak.current(1.0, 1.0));
  EXPECT_DOUBLE_EQ(leak.current(1.0, 1.0), tech.i_leak_unit);
  EXPECT_DOUBLE_EQ(leak.power(1.0, 1.0), tech.i_leak_unit);
  EXPECT_EQ(leak.current(0.0, 1.0), 0.0);
}

// Parameterized sweep: the delay-vs-Vdd curve is smooth (no kinks from
// the EKV interpolation) — successive ratio changes stay bounded.
class DelaySmoothness : public ::testing::TestWithParam<double> {};

TEST_P(DelaySmoothness, LocalRatioBounded) {
  DelayModel model{Tech::umc90()};
  const double v = GetParam();
  const double r = model.inverter_delay_seconds(v) /
                   model.inverter_delay_seconds(v + 0.01);
  EXPECT_GT(r, 1.0);
  EXPECT_LT(r, 1.6);  // < 60% change per 10 mV even deep sub-threshold
}

INSTANTIATE_TEST_SUITE_P(VddSweep, DelaySmoothness,
                         ::testing::Values(0.15, 0.20, 0.25, 0.30, 0.35,
                                           0.40, 0.50, 0.60, 0.80, 1.00));

// --- DelayTable (memoized EKV) accuracy contract -----------------------

TEST_F(DelayModelTest, TableMatchesExactEkvWithinContract) {
  // Documented contract: table-memoized drive current within 0.1% of the
  // exact EKV expression across the full operating range, including the
  // sub-threshold / strong-inversion crossover around Vdd = Vth. The
  // sweep also exercises threshold shifts (SRAM cell stack, mismatch)
  // and non-unit strength, which factor out of the memoized kernel.
  for (double v = 0.15; v <= 1.1 + 1e-9; v += 0.001) {
    for (double vth_off : {0.0, tech.vth_cell_extra, -0.08, 0.12}) {
      for (double strength : {1.0, 0.5, 7.3}) {
        const double exact = model.drive_current_exact(v, vth_off, strength);
        const double table = model.drive_current(v, vth_off, strength);
        EXPECT_NEAR(table / exact, 1.0, 1e-3)
            << "v=" << v << " vth_off=" << vth_off << " s=" << strength;
      }
    }
  }
}

TEST_F(DelayModelTest, TableAccuracyAtSubthresholdCrossover) {
  // Tight scan of the crossover decade (Vdd near Vth = 0.35 V), where
  // the EKV curve bends hardest; the Hermite grid is orders of magnitude
  // inside the contract here.
  for (double v = 0.25; v <= 0.45 + 1e-9; v += 0.0001) {
    const double exact = model.drive_current_exact(v);
    const double table = model.drive_current(v);
    EXPECT_NEAR(table / exact, 1.0, 1e-6) << "v=" << v;
  }
}

TEST_F(DelayModelTest, TableDelayBelowVminOperateIsInfinite) {
  // The table accelerates drive_current only; the operating-limit
  // behaviour of delay_seconds is unchanged by memoization.
  EXPECT_TRUE(std::isinf(
      model.delay_seconds(tech.vmin_operate - 0.001, tech.c_inv)));
  EXPECT_TRUE(std::isfinite(
      model.delay_seconds(tech.vmin_operate, tech.c_inv)));
  EXPECT_EQ(model.delay(0.10, tech.c_inv), sim::kTimeMax);
}

TEST_F(DelayModelTest, TableExactFallbackOutsideGrid) {
  // Off-grid overdrives (x outside [kXLo, kXHi]) bypass the table and
  // must agree with the exact expression to machine precision.
  const DelayTable& t = model.table();
  const double v_hi = tech.vth_logic + DelayTable::kXHi + 0.5;  // x > kXHi
  EXPECT_FALSE(t.covers(v_hi - tech.vth_logic));
  EXPECT_DOUBLE_EQ(model.drive_current(v_hi), model.drive_current_exact(v_hi));
  const double v_lo = tech.vth_logic + DelayTable::kXLo - 0.2;  // x < kXLo
  EXPECT_FALSE(t.covers(v_lo - tech.vth_logic));
  EXPECT_DOUBLE_EQ(model.drive_current(v_lo), model.drive_current_exact(v_lo));
}

TEST_F(DelayModelTest, TableIsSharedAcrossModelsOfOneTech) {
  // One process-wide table per 2*n*VT: corner/threshold variants of the
  // same technology must not rebuild it.
  DelayModel slow{Tech::umc90_slow()};
  DelayModel fast{Tech::umc90_fast()};
  EXPECT_EQ(&model.table(), &slow.table());
  EXPECT_EQ(&model.table(), &fast.table());
}

TEST_F(DelayModelTest, TableInterpolationIsMonotone) {
  // Monotone interpolation: sample between grid nodes at 10x the grid
  // resolution and require strictly non-decreasing current.
  double prev = model.drive_current(0.15);
  for (double v = 0.15; v <= 1.1; v += DelayTable::kStepV / 10.0) {
    const double i = model.drive_current(v);
    EXPECT_GE(i, prev) << "v=" << v;
    prev = i;
  }
}

}  // namespace
}  // namespace emc::device
