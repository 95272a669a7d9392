// Power-adaptive layer tests: QoS curves and the holistic adaptive
// controller.
#include <gtest/gtest.h>

#include "power/adaptive_controller.hpp"
#include "power/qos.hpp"
#include "supply/harvester.hpp"
#include "supply/storage_cap.hpp"
#include "steady_profile.hpp"

namespace emc::power {
namespace {

TEST(QosCurve, ThresholdAndCrossover) {
  QosCurve d1, d2;  // dual-rail, bundled
  for (double v = 0.2; v <= 1.01; v += 0.1) {
    QosPoint p1;
    p1.vdd = v;
    p1.qos = 1e6 * v;          // delivers everywhere
    p1.power_w = 3e-6 * v * v;  // but costs more
    d1.add(p1);
    QosPoint p2;
    p2.vdd = v;
    p2.qos = v >= 0.5 ? 2e6 * v : 0.0;  // dead below 0.5 V
    p2.power_w = 2e-6 * v * v;
    p2.error_rate = v >= 0.5 ? 0.0 : 1.0;
    d2.add(p2);
  }
  EXPECT_NEAR(d1.delivery_threshold(1e5).value(), 0.2, 1e-9);
  EXPECT_NEAR(d2.delivery_threshold(1e5).value(), 0.5, 0.01);
  const auto cross = efficiency_crossover(d1, d2);
  ASSERT_TRUE(cross.has_value());
  EXPECT_NEAR(*cross, 0.5, 0.01);
  const QosCurve h = hybrid_envelope(d1, d2);
  EXPECT_GT(h.at(0.3).qos, 0.0);                  // Design 1 territory
  EXPECT_DOUBLE_EQ(h.at(0.9).qos, d2.at(0.9).qos);  // Design 2 territory
}

TEST(AdaptiveController, TracksStoreVoltageBands) {
  sim::Kernel k;
  sim::Rng rng(2);
  supply::StorageCap store(k, "store", 1e-6, 0.9);
  std::vector<std::uint32_t> levels;
  AdaptiveParams ap;
  ap.control_period = sim::us(100);
  AdaptiveController ctl(k, store, ap, [&](std::uint32_t l) {
    levels.push_back(l);
  });
  ctl.start();
  // Drain the store over time: levels must step down.
  for (int i = 1; i <= 40; ++i) {
    k.schedule_at(sim::us(50) * i, [&] {
      store.draw(store.charge() * 0.08, 0.0);
    });
  }
  k.run_until(sim::ms(3));
  ASSERT_GE(levels.size(), 3u);
  // The sequence of knob settings is non-increasing.
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LE(levels[i], levels[i - 1]);
  }
  EXPECT_EQ(ctl.level(), 0u);
  EXPECT_GT(ctl.control_ticks(), 20u);
  // The last draw lands at 2 ms; every later tick reads the drained store.
  EXPECT_DOUBLE_EQ(ctl.last_estimate(), store.voltage());
}

TEST(AdaptiveController, RecoversLevelsWhenHarvested) {
  sim::Kernel k;
  sim::Rng rng(4);
  supply::StorageCap store(k, "store", 1e-6, 0.1);
  supply::Harvester h(k, test::steady_profile(500e-6), store,
                      rng, sim::us(10));
  AdaptiveParams ap;
  ap.control_period = sim::us(100);
  std::uint32_t last = 0;
  AdaptiveController ctl(k, store, ap, [&](std::uint32_t l) { last = l; });
  ctl.start();
  h.start();
  k.run_until(sim::ms(3));
  EXPECT_GE(last, 3u);  // store recharged towards ~1 V
}

}  // namespace
}  // namespace emc::power
