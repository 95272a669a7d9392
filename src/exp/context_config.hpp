// Declarative gate-context descriptors.
//
// Every experiment in this repo used to re-assemble the same five lines
// by hand: Kernel + DelayModel + Supply + EnergyMeter -> gates::Context.
// ContextConfig makes that assembly *data*: a copyable descriptor of the
// supply (a SupplyConfig) and the trial seed, over the umc90 technology.
// `Experiment` is the elaborated result — it owns the whole stack,
// Kernel included, with stable addresses and hands out the
// gates::Context circuits want.
//
//   auto ex = exp::ContextConfig::battery(0.8).build();
//   async::MullerRing ring(ex.ctx(), "ring", 6, 2);
//   ex.kernel().run_until(sim::ms(5));
#pragma once

#include <memory>
#include <utility>

#include "device/delay_model.hpp"
#include "exp/param_set.hpp"
#include "exp/supply_config.hpp"
#include "gates/energy_meter.hpp"
#include "gates/gate.hpp"
#include "sim/kernel.hpp"

namespace emc::exp {

class Experiment;

class ContextConfig {
 public:
  /// Default: umc90 tech, 1 V battery.
  ContextConfig() = default;

  /// Shorthand for the most common context: a battery at `volts`.
  static ContextConfig battery(double volts) {
    return ContextConfig().supply(SupplyConfig::battery(volts));
  }

  /// Any supply variant.
  static ContextConfig with(SupplyConfig s) {
    return ContextConfig().supply(std::move(s));
  }

  ContextConfig& supply(SupplyConfig s) {
    supply_ = std::move(s);
    return *this;
  }
  /// Monte-Carlo trial seed: re-keys stochastic supply stages
  /// (harvester). 0 = base description.
  ContextConfig& trial_seed(std::uint64_t seed) {
    trial_seed_ = seed;
    return *this;
  }

  /// Adopt the trial seed from a replicated scenario's parameters (the
  /// "trial_seed" key Workbench::replicate injects). A non-replicated
  /// ParamSet leaves the config untouched, so bodies can call this
  /// unconditionally.
  ContextConfig& trial(const ParamSet& p) {
    if (p.has("trial_seed")) trial_seed_ = p.get<std::uint64_t>("trial_seed");
    return *this;
  }

  const SupplyConfig& supply_config() const { return supply_; }
  std::uint64_t trial_seed_value() const { return trial_seed_; }

  /// Elaborate with a fresh kernel owned by the Experiment — the
  /// one-kernel-per-scenario pattern every sweep body uses.
  Experiment build() const;

 private:
  SupplyConfig supply_ = SupplyConfig::battery(1.0);
  std::uint64_t trial_seed_ = 0;
};

/// A live experiment stack: its own kernel, delay model,
/// supply chain, energy meter, and the gates::Context that ties
/// them together. Movable; all addresses handed out are stable. One
/// Experiment serves one scenario: sweep bodies build a fresh one each
/// time, so no state carries over between scenarios.
class Experiment {
 public:
  sim::Kernel& kernel() { return *kernel_; }
  supply::Supply& supply() { return built_.supply(); }
  gates::EnergyMeter* meter() { return meter_.get(); }
  gates::Context& ctx() { return *ctx_; }

  /// Typed accessors into the supply chain (null when absent).
  supply::StorageCap* store() { return built_.store(); }
  supply::AcSupply* ac() { return built_.ac(); }
  supply::Harvester* harvester() { return built_.harvester(); }
  supply::MpptController* mppt() { return built_.mppt(); }
  /// The fault-injection wrapper (null unless the supply config was
  /// marked faultable() or EMC_FAULT_SMOKE=1 forced one).
  fault::FaultableSupply* fault_supply() { return built_.fault(); }

 private:
  friend class ContextConfig;
  explicit Experiment(const ContextConfig& cfg);

  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<device::DelayModel> model_;
  BuiltSupply built_;
  std::unique_ptr<gates::EnergyMeter> meter_;
  std::unique_ptr<gates::Context> ctx_;
};

}  // namespace emc::exp
