// Capacitor-backed supplies: V = Q / C with load-driven discharge.
//
// StorageCap is the energy buffer between a harvester and the load in the
// holistic architecture of Fig. 3; SampleCap (an alias with convenience
// constructors) is the sampling capacitor of the charge-to-digital
// converter of Fig. 9 — the circuit computes *until the charge runs out*,
// which is the purest form of energy-modulated computing in the paper.
#pragma once

#include "sim/trace.hpp"
#include "supply/supply.hpp"

namespace emc::supply {

class StorageCap : public Supply {
 public:
  /// A capacitor of `capacitance` [F] pre-charged to `initial_volts`.
  StorageCap(sim::Kernel& kernel, std::string name, double capacitance,
             double initial_volts);

  double voltage() const override { return charge_ / capacitance_; }

  /// Load transition: removes `charge` and logs `energy`.
  void draw(double charge, double energy) override;

  /// Harvester side: deposit energy [J]; the charge added solves
  /// E = (Q'^2 - Q^2) / 2C exactly. Returns the voltage after deposit and
  /// fires wake callbacks when the resume threshold is crossed.
  double deposit_energy(double joules);

  /// Direct charge injection [C] (SampleCap::sample and tests).
  void deposit_charge(double coulombs);

  double capacitance() const { return capacitance_; }
  double charge() const { return charge_; }
  double stored_energy() const {
    return 0.5 * charge_ * charge_ / capacitance_;
  }

  /// Threshold at which wake listeners fire on a rising crossing.
  void set_wake_threshold(double volts) { wake_threshold_ = volts; }
  double wake_threshold() const { return wake_threshold_; }

  /// Overvoltage clamp (shunt regulator): deposits beyond this voltage
  /// are dumped. Real harvester front-ends always have one — without it
  /// a quiet load lets the generator push the store past the process
  /// maximum. Default: unclamped.
  void set_max_voltage(double volts) { max_voltage_ = volts; }
  double max_voltage() const { return max_voltage_; }
  /// Energy discarded by the clamp [J].
  double clamped_energy() const { return clamped_j_; }

  /// Optional voltage history (sampled at every draw/deposit).
  void enable_trace() { tracing_ = true; }
  const sim::AnalogTrace& trace() const { return trace_; }

 private:
  void record();
  void clamp(double energy_offered_j);

  double capacitance_;
  double charge_;
  double wake_threshold_;
  double max_voltage_ = 0.0;  ///< 0 = unclamped
  double clamped_j_ = 0.0;
  bool tracing_ = false;
  sim::AnalogTrace trace_;
};

/// The C2D converter's sampling capacitor: identical physics, clearer name
/// at call sites ("sample Vin onto the cap, then let the counter drain it").
class SampleCap final : public StorageCap {
 public:
  SampleCap(sim::Kernel& kernel, std::string name, double capacitance,
            double sampled_volts)
      : StorageCap(kernel, std::move(name), capacitance, sampled_volts) {}

  /// Re-sample to a new input voltage (closing S1 in Fig. 9).
  void sample(double volts) {
    // Replace the stored charge outright: the sampling switch connects the
    // cap to a source able to source/sink the difference.
    deposit_charge(volts * capacitance() - charge());
  }
};

}  // namespace emc::supply
