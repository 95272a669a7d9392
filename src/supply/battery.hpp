// Ideal battery and piecewise-linear supplies.
//
// Battery: the traditional design point the paper contrasts against —
// stable, known voltage, effectively unlimited charge.
//
// PiecewiseSupply: voltage follows (time, volts) breakpoints; used for
// the Fig. 7 experiment ("first write under low Vdd takes long, second
// write at high Vdd is fast").
#pragma once

#include <utility>
#include <vector>

#include "supply/supply.hpp"

namespace emc::supply {

class Battery final : public Supply {
 public:
  Battery(sim::Kernel& kernel, std::string name, double volts)
      : Supply(kernel, std::move(name)), volts_(volts) {}

  double voltage() const override { return volts_; }

 private:
  double volts_;
};

/// Piecewise-linear voltage profile: (time, volts) breakpoints.
class PiecewiseSupply final : public Supply {
 public:
  PiecewiseSupply(sim::Kernel& kernel, std::string name,
                  std::vector<std::pair<sim::Time, double>> points,
                  sim::Time retry_hint = sim::us(1));

  double voltage() const override;
  sim::Time retry_hint() const override { return retry_hint_; }

 private:
  std::vector<std::pair<sim::Time, double>> points_;
  sim::Time retry_hint_;
};

}  // namespace emc::supply
