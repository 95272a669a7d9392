#include "exp/context_config.hpp"

namespace emc::exp {

Experiment ContextConfig::build(sim::Kernel& kernel) const {
  return Experiment(nullptr, kernel, *this);
}

Experiment ContextConfig::build() const {
  auto owned = std::make_unique<sim::Kernel>();
  sim::Kernel& k = *owned;
  return Experiment(std::move(owned), k, *this);
}

Experiment::Experiment(std::unique_ptr<sim::Kernel> owned, sim::Kernel& kernel,
                       const ContextConfig& cfg)
    : owned_kernel_(std::move(owned)),
      kernel_(&kernel),
      model_(std::make_unique<device::DelayModel>(cfg.tech_config())),
      built_(cfg.supply_config().build(kernel, cfg.trial_seed_value())),
      sampler_(cfg.variation_config(), cfg.trial_seed_value()) {
  if (cfg.meter_enabled()) {
    meter_ = std::make_unique<gates::EnergyMeter>(kernel, cfg.tech_config(),
                                                  &built_.supply());
  }
  ctx_ = std::make_unique<gates::Context>(
      gates::Context{*kernel_, *model_, built_.supply(), meter_.get()});
}

}  // namespace emc::exp
