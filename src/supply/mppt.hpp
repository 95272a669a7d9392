// Maximum power-point tracking (perturb & observe).
//
// Section II.B: "people often use the so-called maximum power-point
// tracking ... a special controller whose aim is to extract maximum power
// from the micro-generator". The generator's extractable power depends on
// its operating point (for a vibration harvester, the electrical damping
// / tuning); we model that as a concave curve
//
//     eta_extract(x) = 1 - ((x - x_mpp) / width)^2   (clamped to >= 0)
//
// and a P&O controller that perturbs x, observes harvested energy per
// window, and keeps stepping in the improving direction. The tracked
// efficiency is fed to the Harvester as its conversion efficiency.
#pragma once

#include "supply/harvester.hpp"

namespace emc::supply {

struct MpptParams {
  double x_initial = 0.3;     ///< initial operating point (0..1)
  double x_mpp = 0.62;        ///< true maximum power point (unknown to ctl)
  double width = 0.55;        ///< curvature of the extraction curve
  double step = 0.04;         ///< perturbation step
  sim::Time window = sim::ms(1);  ///< observation window
};

class MpptController {
 public:
  MpptController(sim::Kernel& kernel, Harvester& harvester, MpptParams params);

  void start();

  double operating_point() const { return x_; }
  double extraction_efficiency() const { return extraction_at(x_); }
  std::uint64_t steps_taken() const { return steps_; }

 private:
  void step();
  double extraction_at(double x) const;

  sim::Kernel* kernel_;
  Harvester* harvester_;
  MpptParams params_;
  double x_;
  double direction_ = +1.0;
  double last_window_energy_ = 0.0;
  double last_total_ = 0.0;
  std::uint64_t steps_ = 0;
  bool running_ = false;  // set by start(); a second start() is a no-op
};

}  // namespace emc::supply
