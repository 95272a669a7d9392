// Holistic power-adaptive controller (Fig. 3).
//
// Closes the two-way loop the paper's conclusion demands: "(i) perform
// task scheduling according to the power profile, and (ii) optimize the
// supply to the load needs". Periodically it:
//   1. reads the store voltage,
//   2. maps it to an admission level through banded hysteresis (the
//      "power profile"),
//   3. drives an arbitrary load knob (scheduler concurrency, counter
//      enable, SRAM burst size) with that level.
// The level policy is deliberately simple — the experiments compare it
// against a fixed-rate controller, not against an oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/kernel.hpp"
#include "supply/supply.hpp"

namespace emc::power {

struct AdaptiveParams {
  /// Voltage band edges (ascending): level = number of edges below the
  /// estimate. With K edges the level is 0..K.
  std::vector<double> band_edges{0.25, 0.40, 0.60, 0.85};
  double hysteresis = 0.02;
  sim::Time control_period = sim::us(200);
};

class AdaptiveController {
 public:
  using LevelKnob = std::function<void(std::uint32_t level)>;

  AdaptiveController(sim::Kernel& kernel, supply::Supply& store,
                     AdaptiveParams params, LevelKnob knob);

  void start();

  std::uint32_t level() const { return level_; }
  double last_estimate() const { return last_estimate_; }
  std::uint64_t control_ticks() const { return ticks_; }
  std::uint64_t level_changes() const { return level_changes_; }

 private:
  void tick();
  std::uint32_t level_for(double vdd) const;

  sim::Kernel* kernel_;
  supply::Supply* store_;
  AdaptiveParams params_;
  LevelKnob knob_;
  bool running_ = false;  // set by start(); a second start() is a no-op
  std::uint32_t level_ = 0;
  double last_estimate_ = 0.0;
  std::uint64_t ticks_ = 0;
  std::uint64_t level_changes_ = 0;
};

}  // namespace emc::power
