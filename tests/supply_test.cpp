// Supply model tests: battery/waveform, AC, storage caps, harvester,
// MPPT.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "supply/ac_supply.hpp"
#include "supply/battery.hpp"
#include "supply/harvester.hpp"
#include "supply/mppt.hpp"
#include "supply/storage_cap.hpp"
#include "steady_profile.hpp"

namespace emc::supply {
namespace {

TEST(Battery, HoldsVoltage) {
  sim::Kernel k;
  Battery b(k, "bat", 1.0);
  EXPECT_DOUBLE_EQ(b.voltage(), 1.0);
  b.draw(1e-9, 1e-9);
  EXPECT_DOUBLE_EQ(b.voltage(), 1.0);
  EXPECT_DOUBLE_EQ(b.total_energy_drawn(), 1e-9);
  EXPECT_EQ(b.draw_count(), 1u);
}

TEST(PiecewiseSupply, InterpolatesBreakpoints) {
  sim::Kernel k;
  PiecewiseSupply p(k, "pw",
                    {{0, 0.2}, {sim::us(1), 1.0}, {sim::us(2), 0.4}});
  EXPECT_DOUBLE_EQ(p.voltage(), 0.2);
  k.schedule(sim::ns(500), [&] { EXPECT_NEAR(p.voltage(), 0.6, 1e-9); });
  k.schedule(sim::us(2), [&] { EXPECT_NEAR(p.voltage(), 0.4, 1e-9); });
  k.schedule(sim::us(5), [&] { EXPECT_NEAR(p.voltage(), 0.4, 1e-9); });
  k.run_until(sim::kTimeMax);
}

TEST(AcSupply, PaperWaveform200mVpm100mV) {
  sim::Kernel k;
  AcSupply ac(k, "ac", 0.2, 0.1, 1e6);  // Fig. 4 supply
  EXPECT_DOUBLE_EQ(ac.voltage_at(0), 0.2);
  // Peak at quarter period.
  EXPECT_NEAR(ac.voltage_at(sim::ns(250)), 0.3, 1e-3);
  // Trough at three-quarter period.
  EXPECT_NEAR(ac.voltage_at(sim::ns(750)), 0.1, 1e-3);
  EXPECT_EQ(ac.period(), sim::us(1));
  EXPECT_EQ(ac.retry_hint(), sim::us(1) / 64);
}

TEST(AcSupply, RectifiedNeverNegative) {
  sim::Kernel k;
  AcSupply ac(k, "ac", 0.0, 0.3, 1e6, /*rectified=*/true);
  for (sim::Time t = 0; t < sim::us(2); t += sim::ns(37)) {
    EXPECT_GE(ac.voltage_at(t), 0.0);
  }
}

TEST(StorageCap, VoltageIsQOverC) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 1.0);
  EXPECT_DOUBLE_EQ(cap.voltage(), 1.0);
  EXPECT_DOUBLE_EQ(cap.charge(), 1e-9);
  EXPECT_DOUBLE_EQ(cap.stored_energy(), 0.5e-9);
  cap.draw(0.5e-9, 0.5e-9);
  EXPECT_DOUBLE_EQ(cap.voltage(), 0.5);
}

TEST(StorageCap, DepositEnergyExactQuadrature) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 0.0);
  // E = C V^2 / 2 => depositing 0.5 nJ into 1 nF gives 1 V.
  cap.deposit_energy(0.5e-9);
  EXPECT_NEAR(cap.voltage(), 1.0, 1e-12);
}

TEST(StorageCap, WakeFiresOnRisingThresholdCrossing) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 0.0);
  cap.set_wake_threshold(0.15);
  int woken = 0;
  cap.on_wake([&] { ++woken; });
  cap.deposit_charge(0.10e-9);  // 0.1 V: below
  EXPECT_EQ(woken, 0);
  cap.deposit_charge(0.10e-9);  // 0.2 V: crossing
  EXPECT_EQ(woken, 1);
  cap.deposit_charge(0.10e-9);  // already above: no re-fire
  EXPECT_EQ(woken, 1);
  cap.draw(0.25e-9, 0.0);  // drops to 0.05 V
  cap.deposit_charge(0.20e-9);
  EXPECT_EQ(woken, 2);
}

TEST(StorageCap, NeverNegativeCharge) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 0.1);
  cap.draw(1.0, 1.0);  // absurd overdraw
  EXPECT_DOUBLE_EQ(cap.charge(), 0.0);
  EXPECT_DOUBLE_EQ(cap.voltage(), 0.0);
}

TEST(StorageCap, NegativeDepositChargeRemovesCharge) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 1.0);
  cap.set_max_voltage(1.2);
  // Resampling to a lower voltage (SampleCap::sample) injects negative
  // charge: a withdrawal. V = Q/C must track, nothing may be attributed
  // to the clamp, and the floor at zero charge must hold for
  // over-withdrawal.
  cap.deposit_charge(-0.4e-9);
  EXPECT_NEAR(cap.voltage(), 0.6, 1e-15);
  EXPECT_NEAR(cap.stored_energy(), 0.5 * 1e-9 * 0.36, 1e-21);
  EXPECT_DOUBLE_EQ(cap.clamped_energy(), 0.0);
  cap.deposit_charge(-5e-9);  // withdraw more than is stored
  EXPECT_DOUBLE_EQ(cap.charge(), 0.0);
  EXPECT_DOUBLE_EQ(cap.voltage(), 0.0);
  EXPECT_DOUBLE_EQ(cap.clamped_energy(), 0.0);
}

TEST(StorageCap, ClampAccountsDiscardedEnergyAtCeiling) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-6, 0.9);
  cap.set_max_voltage(1.0);
  // Stored 0.405 uJ; the ceiling holds 0.5 uJ. Depositing 0.3 uJ can
  // only keep 95 nJ — the shunt dumps the rest and must account for it.
  cap.deposit_energy(0.3e-6);
  EXPECT_NEAR(cap.voltage(), 1.0, 1e-12);
  EXPECT_NEAR(cap.stored_energy(), 0.5e-6, 1e-15);
  EXPECT_NEAR(cap.clamped_energy(), 0.205e-6, 1e-15);
  // Pinned at the ceiling, every further joule is dumped in full.
  cap.deposit_energy(0.1e-6);
  EXPECT_NEAR(cap.voltage(), 1.0, 1e-12);
  EXPECT_NEAR(cap.clamped_energy(), 0.305e-6, 1e-15);
  // Charge injection above the ceiling is clamped with mean-voltage
  // energy accounting: +0.2 uC would reach 1.2 V; the kept part is the
  // ceiling, the offered energy (mean of 1.0 and 1.2 V times 0.2 uC =
  // 0.22 uJ on top of 0.5 uJ stored) minus the kept 0.5 uJ is dumped.
  cap.deposit_charge(0.2e-6);
  EXPECT_NEAR(cap.voltage(), 1.0, 1e-12);
  EXPECT_NEAR(cap.clamped_energy(), 0.305e-6 + 0.22e-6, 1e-15);
}

TEST(SampleCap, SampleSetsVoltageBothDirections) {
  sim::Kernel k;
  SampleCap cap(k, "cs", 100e-12, 0.8);
  cap.sample(0.3);
  EXPECT_NEAR(cap.voltage(), 0.3, 1e-12);
  cap.sample(0.9);
  EXPECT_NEAR(cap.voltage(), 0.9, 1e-12);
}

TEST(Harvester, SteadyProfileDeliversExpectedEnergy) {
  sim::Kernel k;
  sim::Rng rng(1);
  StorageCap cap(k, "store", 10e-6, 0.0);  // large cap: voltage stays low
  Harvester h(k, test::steady_profile(100e-6), cap, rng, sim::us(10));
  h.start();
  k.run_until(sim::ms(10));
  // 100 uW for 10 ms = 1 uJ (one tick of quantization slack).
  EXPECT_NEAR(h.total_energy_harvested(), 1e-6, 2e-8);
  EXPECT_NEAR(cap.stored_energy(), 1e-6, 2e-8);
}

TEST(Harvester, MarkovProfileVisitsStates) {
  sim::Kernel k;
  sim::Rng rng(99);
  StorageCap cap(k, "store", 10e-6, 0.0);
  Harvester h(k, HarvesterProfile::vibration_200uw(), cap, rng, sim::us(10));
  h.start();
  k.run_until(sim::ms(100));
  // Average power should be in the vicinity of the profile's mix
  // (dominated by NORMAL at 200 uW).
  const double avg = h.total_energy_harvested() / 100e-3;
  EXPECT_GT(avg, 30e-6);
  EXPECT_LT(avg, 800e-6);
}

TEST(Harvester, EfficiencyScalesDeposits) {
  sim::Kernel k;
  sim::Rng rng(1);
  StorageCap cap(k, "store", 10e-6, 0.0);
  Harvester h(k, test::steady_profile(100e-6), cap, rng, sim::us(10));
  h.set_efficiency(0.5);
  h.start();
  k.run_until(sim::ms(1));
  EXPECT_NEAR(h.total_energy_harvested(), 0.05e-6, 2e-9);
}

TEST(Mppt, ConvergesNearMaximumPowerPoint) {
  sim::Kernel k;
  sim::Rng rng(5);
  StorageCap cap(k, "store", 100e-6, 0.0);
  Harvester h(k, test::steady_profile(200e-6), cap, rng, sim::us(10));
  MpptParams mp;
  mp.x_initial = 0.1;  // far from the true MPP at 0.62
  MpptController mppt(k, h, mp);
  h.start();
  mppt.start();
  k.run_until(sim::ms(60));
  EXPECT_GT(mppt.extraction_efficiency(), 0.95);
  EXPECT_NEAR(mppt.operating_point(), 0.62, 0.10);
  EXPECT_GT(mppt.steps_taken(), 10u);
}

// --- voltage epoch (quasi-static cache invalidation) --------------------

TEST(VoltageEpoch, BatteryHoldsItsEpochAcrossDraws) {
  sim::Kernel k;
  Battery b(k, "bat", 1.0);
  const std::uint64_t e0 = b.voltage_epoch();
  b.draw(1e-12, 1e-12);  // draws don't move an ideal battery
  EXPECT_EQ(b.voltage_epoch(), e0);
}

TEST(VoltageEpoch, StorageCapAdvancesOnDrawAndDeposit) {
  sim::Kernel k;
  StorageCap cap(k, "cap", 1e-9, 1.0);
  const std::uint64_t e0 = cap.voltage_epoch();
  cap.draw(1e-12, 1e-12);
  const std::uint64_t e1 = cap.voltage_epoch();
  EXPECT_GT(e1, e0);
  cap.deposit_energy(1e-12);
  EXPECT_GT(cap.voltage_epoch(), e1);
}

TEST(VoltageEpoch, AcSupplyAdvancesWithTime) {
  sim::Kernel k;
  AcSupply ac(k, "ac", 0.2, 0.1, 1e6);
  const std::uint64_t e0 = ac.voltage_epoch();
  EXPECT_EQ(ac.voltage_epoch(), e0);  // same timestamp: stable
  k.schedule(sim::ns(5), [] {});
  k.run_until(sim::kTimeMax);
  EXPECT_GT(ac.voltage_epoch(), e0);
}

// --- defensive invariants (fault-injection hardening) ------------------
//
// A NaN-poisoned model or a faulted upstream must not corrupt a store:
// invalid draws/deposits are rejected and counted, never propagated.

TEST(DrawGuard, RejectsNaNInfAndNegativeDraws) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 1.0);
  const double q0 = cap.charge();

  cap.draw(std::nan(""), 1e-12);
  cap.draw(1e-12, std::nan(""));
  cap.draw(std::numeric_limits<double>::infinity(), 1e-12);
  cap.draw(-1e-12, 1e-12);
  cap.draw(1e-12, -1e-12);
  EXPECT_DOUBLE_EQ(cap.charge(), q0);  // store untouched
  EXPECT_EQ(cap.draw_count(), 0u);
  EXPECT_EQ(cap.rejected_draws(), 5u);

  cap.draw(1e-12, 1e-12);  // a valid draw still works
  EXPECT_LT(cap.charge(), q0);
  EXPECT_EQ(cap.draw_count(), 1u);
  EXPECT_EQ(cap.rejected_draws(), 5u);
}

TEST(DepositGuard, StorageCapIgnoresNonFiniteDeposits) {
  sim::Kernel k;
  StorageCap cap(k, "store", 1e-9, 0.5);
  const double q0 = cap.charge();
  // Regression: std::max(0.0, q + NaN) evaluates to 0.0, so an
  // unguarded NaN deposit silently ZEROED the store instead of
  // poisoning it — the guard must reject it outright.
  cap.deposit_charge(std::nan(""));
  EXPECT_DOUBLE_EQ(cap.charge(), q0);
  cap.deposit_energy(std::nan(""));
  cap.deposit_energy(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(cap.charge(), q0);
  EXPECT_DOUBLE_EQ(cap.voltage(), 0.5);
}

TEST(HarvesterBlackout, GatesPowerWithoutDisturbingTheStream) {
  sim::Kernel k;
  sim::Rng rng(1);
  StorageCap cap(k, "store", 10e-6, 0.0);
  Harvester h(k, test::steady_profile(100e-6), cap, rng, sim::us(10));
  h.start();
  k.schedule(sim::ms(2), [&] { h.begin_blackout(); });
  k.schedule(sim::ms(2), [&] { h.begin_blackout(); });  // nests
  k.schedule(sim::ms(4), [&] { h.end_blackout(); });
  k.schedule(sim::ms(6), [&] { h.end_blackout(); });  // now clear
  k.run_until(sim::ms(10));
  // 100 uW for 10 ms minus the 4 ms blacked out = ~0.6 uJ.
  EXPECT_NEAR(h.total_energy_harvested(), 0.6e-6, 2e-8);
  EXPECT_FALSE(h.blacked_out());
  // Mid-blackout the instantaneous output reads zero.
  sim::Kernel k2;
  sim::Rng rng2(1);
  StorageCap cap2(k2, "store", 10e-6, 0.0);
  Harvester h2(k2, test::steady_profile(100e-6), cap2, rng2, sim::us(10));
  h2.begin_blackout();
  EXPECT_DOUBLE_EQ(h2.instantaneous_power(), 0.0);
  h2.end_blackout();
  EXPECT_GT(h2.instantaneous_power(), 0.0);
}

}  // namespace
}  // namespace emc::supply
