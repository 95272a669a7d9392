#include "power/adaptive_controller.hpp"

namespace emc::power {

AdaptiveController::AdaptiveController(sim::Kernel& kernel,
                                       supply::Supply& store,
                                       AdaptiveParams params, LevelKnob knob)
    : kernel_(&kernel),
      store_(&store),
      params_(std::move(params)),
      knob_(std::move(knob)) {}

void AdaptiveController::start() {
  if (running_) return;
  running_ = true;
  kernel_->schedule(params_.control_period, [this] { tick(); });
}

std::uint32_t AdaptiveController::level_for(double vdd) const {
  std::uint32_t lvl = 0;
  for (double edge : params_.band_edges) {
    // Hysteresis: raising a level needs edge + h; dropping needs edge - h.
    const double eff = (lvl >= level_) ? edge + params_.hysteresis
                                       : edge - params_.hysteresis;
    if (vdd >= eff) ++lvl;
  }
  return lvl;
}

void AdaptiveController::tick() {
  ++ticks_;
  last_estimate_ = store_->voltage();
  const std::uint32_t lvl = level_for(last_estimate_);
  if (lvl != level_) {
    level_ = lvl;
    ++level_changes_;
    if (knob_) knob_(level_);
  }
  kernel_->schedule(params_.control_period, [this] { tick(); });
}

}  // namespace emc::power
