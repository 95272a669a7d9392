#include "supply/mppt.hpp"

#include <algorithm>

namespace emc::supply {

MpptController::MpptController(sim::Kernel& kernel, Harvester& harvester,
                               MpptParams params)
    : kernel_(&kernel),
      harvester_(&harvester),
      params_(params),
      x_(params.x_initial) {}

double MpptController::extraction_at(double x) const {
  const double d = (x - params_.x_mpp) / params_.width;
  return std::max(0.0, 1.0 - d * d);
}

void MpptController::start() {
  if (running_) return;
  running_ = true;
  harvester_->set_efficiency(extraction_at(x_));
  last_total_ = harvester_->total_energy_harvested();
  kernel_->schedule(params_.window, [this] { step(); });
}

void MpptController::step() {
  // Perturb & observe: compare this window's harvest with the previous
  // one; keep going if it improved, reverse otherwise.
  const double total = harvester_->total_energy_harvested();
  const double window_energy = total - last_total_;
  last_total_ = total;
  if (window_energy < last_window_energy_) direction_ = -direction_;
  last_window_energy_ = window_energy;
  x_ = std::clamp(x_ + direction_ * params_.step, 0.0, 1.0);
  harvester_->set_efficiency(extraction_at(x_));
  ++steps_;
  kernel_->schedule(params_.window, [this] { step(); });
}

}  // namespace emc::supply
