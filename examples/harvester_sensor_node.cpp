// A complete energy-harvesting sensor node (the paper's Fig. 3 chain,
// end to end).
//
//   $ ./harvester_sensor_node
//
// Vibration harvester -> MPPT -> storage cap -> { SI SRAM log buffer +
// sampling workload + adaptive controller }. The whole power chain is
// one declarative exp::SupplyConfig::harvested descriptor; the load
// island elaborates from the exp::ContextConfig built on it. Every 2 ms
// the node samples a "physical quantity" (here: its own store voltage,
// via the reference-free sensor) and logs the reading into the
// speed-independent SRAM. The adaptive controller throttles the sampling
// rate with the store level. The run prints a timeline and the node's
// energy ledger.
#include <cstdio>
#include <functional>
#include <vector>

#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "power/adaptive_controller.hpp"
#include "sensor/calibration.hpp"
#include "sensor/reference_free.hpp"
#include "sram/si_controller.hpp"

using namespace emc;

int main() {
  std::printf("== energy-harvesting sensor node (holistic chain) ==\n\n");

  // Power chain + load island, declared as data. auto_start = false: the
  // node brings the chain up explicitly after calibration, preserving
  // its t=0 event ordering.
  auto ex = exp::ContextConfig::with(
                exp::SupplyConfig::harvested(
                    exp::SupplyConfig::storage_cap(1e-6, 0.55)
                        .wake_threshold(0.18)
                        .max_voltage(1.0)  // shunt regulator at the maximum
                        .trace(),
                    supply::HarvesterProfile::vibration_200uw(), 2026,
                    sim::us(10), /*with_mppt=*/true, /*auto_start=*/false))
                .build();
  sim::Kernel& kernel = ex.kernel();
  supply::StorageCap& store = *ex.store();
  sram::SiSram log_mem(ex.ctx(), "log", sram::SiSramParams{});
  sensor::ReferenceFreeSensor probe_sensor(ex.ctx(), "rf",
                                           sensor::RefFreeParams{});

  // Calibrate the sensor once (factory step, battery-powered) against a
  // typed calibration grid.
  exp::Grid cal_grid;
  {
    std::vector<double> points;
    for (double v = 0.20; v <= 1.001; v += 0.04) points.push_back(v);
    cal_grid.over("vdd", points);
  }
  sensor::CalibrationTable lut;
  for (const auto& p : cal_grid.build()) {
    auto cal = exp::ContextConfig::with(
                   exp::SupplyConfig::battery(p.get<double>("vdd"))
                       .name("cal"))
                   .build();
    sensor::ReferenceFreeSensor s(cal.ctx(), "rf", sensor::RefFreeParams{});
    s.measure([&](const sensor::RefFreeReading& r) {
      if (r.valid) lut.add(double(r.code), p.get<double>("vdd"));
    });
    cal.kernel().run_until(sim::ms(30));
  }

  // Adaptive control: sampling period stretches as the store depletes.
  std::uint32_t level = 4;
  power::AdaptiveParams ap;
  ap.control_period = sim::us(250);
  power::AdaptiveController ctl(kernel, store, ap,
                                [&](std::uint32_t l) { level = l; });

  // The sampling loop.
  std::size_t next_addr = 0;
  std::uint64_t samples = 0, skipped = 0;
  std::vector<std::pair<double, double>> timeline;  // (t_ms, est_v)
  std::function<void()> tick = [&] {
    const sim::Time period = sim::us(500) * (5 - std::min(level, 4u));
    if (level == 0 || probe_sensor.measuring()) {
      ++skipped;  // depleted: skip this sample entirely
      kernel.schedule(sim::ms(2), tick);
      return;
    }
    probe_sensor.measure([&](const sensor::RefFreeReading& r) {
      if (r.valid && !r.saturated) {
        const double est = lut.lookup(double(r.code));
        ++samples;
        if (samples % 25 == 1) {
          timeline.emplace_back(sim::to_seconds(kernel.now()) * 1e3, est);
        }
        log_mem.write(next_addr, static_cast<std::uint16_t>(est * 1000),
                      nullptr);
        next_addr = (next_addr + 1) % 64;
      }
    });
    kernel.schedule(period, tick);
  };

  ex.harvester()->start();
  ex.mppt()->start();
  ctl.start();
  kernel.schedule(sim::ms(1), tick);
  kernel.run_until(sim::ms(120));

  std::printf("timeline (store voltage as the node itself measured it):\n");
  for (const auto& [t_ms, v] : timeline) {
    std::printf("  t=%6.1f ms   store ~ %.3f V\n", t_ms, v);
  }
  ex.meter()->integrate_leakage();
  std::printf("\nnode ledger after 120 ms:\n");
  std::printf("  harvested            : %8.2f uJ (MPPT eta %.2f)\n",
              ex.harvester()->total_energy_harvested() * 1e6,
              ex.mppt()->extraction_efficiency());
  std::printf("  samples logged       : %8llu (skipped %llu while depleted)\n",
              (unsigned long long)samples, (unsigned long long)skipped);
  std::printf("  SRAM writes          : %8llu, margin failures %llu\n",
              (unsigned long long)log_mem.writes_completed(),
              (unsigned long long)log_mem.write_margin_failures());
  std::printf("  load dynamic energy  : %8.2f uJ\n",
              ex.meter()->dynamic_energy() * 1e6);
  std::printf("  load leakage energy  : %8.2f uJ\n",
              ex.meter()->leakage_energy() * 1e6);
  std::printf("  store now            : %8.3f V\n", store.voltage());
  std::printf("  controller level     : %u (of 4), %llu level changes\n",
              level, (unsigned long long)ctl.level_changes());
  if (!store.trace().write_csv("sensor_node_store.csv")) return 1;
  std::printf("\nstore voltage history written to sensor_node_store.csv\n");
  return 0;
}
