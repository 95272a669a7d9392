#include "exp/context_config.hpp"

namespace emc::exp {

Experiment ContextConfig::build() const { return Experiment(*this); }

Experiment::Experiment(const ContextConfig& cfg)
    : kernel_(std::make_unique<sim::Kernel>()),
      model_(std::make_unique<device::DelayModel>(device::Tech::umc90())),
      built_(cfg.supply_config().build(*kernel_, cfg.trial_seed_value())),
      meter_(std::make_unique<gates::EnergyMeter>(*kernel_, model_->tech(),
                                                  &built_.supply())) {
  ctx_ = std::make_unique<gates::Context>(
      gates::Context{*kernel_, *model_, built_.supply(), *meter_});
}

}  // namespace emc::exp
