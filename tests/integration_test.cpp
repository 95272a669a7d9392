// Cross-module integration and conservation properties.
//
// These tests exercise the paths the figure benches rely on end-to-end:
// energy bookkeeping closes across supply/meter, multiple circuits share
// one store and modulate each other, and the full harvester -> sensor ->
// SRAM chain survives realistic supply chaos.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "async/bundled.hpp"
#include "async/counter.hpp"
#include "async/pipeline.hpp"
#include "device/delay_model.hpp"
#include "gates/energy_meter.hpp"
#include "sensor/charge_to_digital.hpp"
#include "sensor/reference_free.hpp"
#include "sram/si_controller.hpp"
#include "supply/ac_supply.hpp"
#include "supply/battery.hpp"
#include "supply/harvester.hpp"
#include "supply/storage_cap.hpp"

namespace emc {
namespace {

// Energy drawn from the supply equals the meter's dynamic total at every
// billing site — gate, toggle, dual-rail latch, bundled latch and SI SRAM
// macro. Each site bills through gates::Context::bill, which adds the same
// values to both ledgers in the same order, so they agree exactly.
TEST(Integration, EnergyLedgersAgree) {
  // Builds one circuit on a fresh metered 0.8 V battery context, runs
  // it, and returns the meter's dynamic energy for entry `site`.
  struct Ledgers {
    double drawn = 0.0;
    double metered = 0.0;
    double site = 0.0;
  };
  const auto ledgers = [](const std::string& site, const auto& build_and_run) {
    sim::Kernel kernel;
    device::DelayModel model{device::Tech::umc90()};
    supply::Battery vdd(kernel, "vdd", 0.8);
    gates::EnergyMeter meter(kernel, device::Tech::umc90(), &vdd);
    gates::Context ctx{kernel, model, vdd, meter};
    build_and_run(ctx);
    Ledgers l{vdd.total_energy_drawn(), meter.dynamic_energy(), 0.0};
    for (gates::EnergyMeter::GateId id = 0; id < meter.gate_count(); ++id) {
      if (meter.gate_name(id) == site) l.site = meter.gate_dynamic_energy(id);
    }
    return l;
  };
  const std::vector<std::pair<std::string, Ledgers>> cases = {
      {"ring.ce0", ledgers("ring.ce0", [](gates::Context& ctx) {
         async::MullerRing ring(ctx, "ring", 8, 3);
         ring.start();
         ctx.kernel.run_until(sim::us(2));
       })},
      {"ctr.T0", ledgers("ctr.T0", [](gates::Context& ctx) {
         async::ToggleRippleCounter ctr(ctx, "ctr", 4);
         ctr.start();
         ctx.kernel.run_until(sim::us(2));
       })},
      {"drc.latch", ledgers("drc.latch", [](gates::Context& ctx) {
         async::DualRailCounter ctr(ctx, "drc", 2);
         ctr.start();
         ctx.kernel.run_until(sim::us(1));
       })},
      {"bc.latch", ledgers("bc.latch", [](gates::Context& ctx) {
         async::BundledCounter ctr(ctx, "bc", async::BundledParams{});
         ctr.start();
         ctx.kernel.run_until(sim::us(1));
       })},
      {"sram.macro", ledgers("sram.macro", [](gates::Context& ctx) {
         sram::SiSram sram(ctx, "sram", sram::SiSramParams{});
         sram.write(3, 0x5a, nullptr);
         sram.read(3, nullptr);
         ctx.kernel.run_until(sim::kTimeMax);
       })},
  };
  for (const auto& [site, l] : cases) {
    EXPECT_GT(l.site, 0.0) << site << " was never billed";
    EXPECT_GT(l.drawn, 0.0) << site;
    EXPECT_EQ(l.drawn, l.metered) << site;
  }
}

// Cap-powered run: the energy removed from the capacitor (by the exact
// Q^2/2C accounting) matches the per-transition C*V*V draws within the
// discrete-update approximation (each draw debits V*dQ >= the true
// field-energy change, so the stored-energy drop bounds the billed sum).
TEST(Integration, CapacitorEnergyAccountingCloses) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::StorageCap cap(kernel, "cap", 100e-12, 0.9);
  gates::EnergyMeter meter(kernel, device::Tech::umc90(), &cap);
  gates::Context ctx{kernel, model, cap, meter};
  async::ToggleRippleCounter ctr(ctx, "ctr", 6);
  const double e0 = cap.stored_energy();
  ctr.start();
  kernel.run_until(sim::ms(2));  // runs to exhaustion
  const double removed = e0 - cap.stored_energy();
  const double billed = cap.total_energy_drawn();
  EXPECT_GT(billed, 0.0);
  // billed = sum V*dQ, removed = integral V dQ: equal to first order in
  // dQ/Q (~1e-4 here).
  EXPECT_NEAR(removed, billed, billed * 0.01);
}

// Two circuits on one sampling cap: the parasite load steals charge, so
// the C2D's code for the same Vin shrinks — supplies couple circuits.
TEST(Integration, SharedCapCouplesCircuits) {
  auto code_with_parasite = [](bool parasite) {
    sim::Kernel kernel;
    device::DelayModel model{device::Tech::umc90()};
    supply::Battery host(kernel, "host", 1.0);
    gates::EnergyMeter meter(kernel, device::Tech::umc90(), &host);
    gates::Context ctx{kernel, model, host, meter};
    sensor::C2dParams p;
    p.sample_cap_f = 20e-12;
    sensor::ChargeToDigitalConverter c2d(ctx, "c2d", p);
    std::unique_ptr<gates::Context> island;
    std::unique_ptr<async::MullerRing> ring;
    if (parasite) {
      island = std::make_unique<gates::Context>(
          gates::Context{kernel, model, c2d.cap(), meter});
      ring = std::make_unique<async::MullerRing>(*island, "leech", 6, 2);
    }
    std::optional<std::uint64_t> code;
    c2d.convert(0.8, [&](const sensor::ConversionResult& r) {
      code = r.code;
    });
    if (ring) ring->start();
    kernel.run_until(sim::ms(5));
    return code;
  };
  const auto clean = code_with_parasite(false);
  const auto loaded = code_with_parasite(true);
  ASSERT_TRUE(clean && loaded);
  EXPECT_LT(*loaded, (*clean * 9) / 10);  // >=10% of the charge stolen
}

/// A feeble, mostly-dead source (~20 uW) that browns the store out.
supply::HarvesterProfile intermittent_20uw() {
  supply::HarvesterProfile p;
  p.power_w = {0.0, 10e-6, 40e-6, 150e-6};
  p.dwell_s = {10e-3, 5e-3, 2e-3, 0.5e-3};
  p.jump = {{
      {0.0, 0.8, 0.2, 0.0},
      {0.6, 0.0, 0.35, 0.05},
      {0.3, 0.5, 0.0, 0.2},
      {0.1, 0.5, 0.4, 0.0},
  }};
  return p;
}

// Full chain: harvester charges a store; an SI SRAM and the reference-
// free sensor run from it concurrently through repeated brown-outs.
// Nothing corrupts: every completed write reads back, every sensor
// reading is either valid or cleanly flagged.
TEST(Integration, HarvesterSramSensorChainSurvivesBrownouts) {
  sim::Kernel kernel;
  sim::Rng rng(77);
  device::DelayModel model{device::Tech::umc90()};
  supply::StorageCap store(kernel, "store", 100e-12, 0.5);
  store.set_wake_threshold(0.18);
  store.set_max_voltage(1.0);
  supply::Harvester harvester(kernel, intermittent_20uw(), store, rng,
                              sim::us(10));
  gates::EnergyMeter meter(kernel, device::Tech::umc90(), &store);
  gates::Context ctx{kernel, model, store, meter};
  sram::SiSram sram(ctx, "sram", sram::SiSramParams{});
  sensor::ReferenceFreeSensor sensor(ctx, "rf", sensor::RefFreeParams{});

  harvester.start();
  std::uint64_t writes_ok = 0, reads_ok = 0, sense_ok = 0, sense_flagged = 0;
  std::function<void(std::size_t)> write_loop = [&](std::size_t i) {
    if (i >= 12) return;
    sram.write(i, static_cast<std::uint16_t>(0xC0DE + i),
               [&, i](const sram::OpResult& r) {
                 if (r.ok) ++writes_ok;
                 sram.read(i, [&, i](std::uint16_t v, const sram::OpResult&) {
                   if (v == static_cast<std::uint16_t>(0xC0DE + i)) ++reads_ok;
                   write_loop(i + 1);
                 });
               });
  };
  std::function<void()> sense_loop = [&] {
    if (sensor.measuring()) {
      kernel.schedule(sim::us(300), sense_loop);
      return;
    }
    sensor.measure([&](const sensor::RefFreeReading& r) {
      if (r.valid) {
        ++sense_ok;
      } else {
        ++sense_flagged;
      }
      kernel.schedule(sim::us(300), sense_loop);
    });
  };
  write_loop(0);
  kernel.schedule(sim::us(100), sense_loop);
  kernel.run_until(sim::ms(40));

  EXPECT_GT(writes_ok, 6u);              // progress despite a 20 uW diet
  EXPECT_EQ(reads_ok, writes_ok);        // everything written reads back
  EXPECT_GT(sense_ok + sense_flagged, 5u);
}

// The Fig. 4 counter and a ripple counter share one AC supply: both make
// progress, neither corrupts — stall/wake fan-out works for multiple
// independent circuits on one rail.
TEST(Integration, TwoCountersShareAcSupply) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::AcSupply ac(kernel, "ac", 0.22, 0.1, 1e6);
  gates::EnergyMeter meter(kernel, device::Tech::umc90(), &ac);
  gates::Context ctx{kernel, model, ac, meter};
  async::DualRailCounter drc(ctx, "drc", 2);
  async::ToggleRippleCounter trc(ctx, "trc", 4);
  drc.start();
  trc.start();
  kernel.run_until(sim::us(30));
  EXPECT_GT(drc.count(), 10u);
  EXPECT_EQ(drc.code_errors(), 0u);
  EXPECT_GT(trc.transitions_served(), 50u);
  // Per-module energy attribution stays separable in the shared meter.
  const auto by_mod = meter.energy_by_prefix(1);
  EXPECT_TRUE(by_mod.count("drc"));
  EXPECT_TRUE(by_mod.count("trc"));
}

}  // namespace
}  // namespace emc
