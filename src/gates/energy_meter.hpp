// Per-gate energy and activity accounting.
//
// Every gate transition reports its dynamic energy here, and leakage is
// integrated piecewise against the supply voltage. The meter is what
// turns the simulator into an *energy-modulated* one: the paper's central
// quantities — energy per operation, transitions per quantum of charge,
// power-proportionality curves — are all read off this object.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/leakage.hpp"
#include "sim/kernel.hpp"
#include "supply/supply.hpp"

namespace emc::gates {

class EnergyMeter {
 public:
  using GateId = std::size_t;

  /// `supply` provides the voltage for leakage integration; it may be
  /// null for purely behavioural experiments (leakage then reads 0).
  EnergyMeter(sim::Kernel& kernel, const device::Tech& tech,
              supply::Supply* supply = nullptr);

  /// Register a gate. `leak_width` is its leakage footprint in unit
  /// device widths. Names use '.'-separated hierarchy
  /// ("sram.ctl.c1") so reports can roll energy up per module.
  GateId add(std::string name, double leak_width = 3.0);

  /// Record one output transition of `id` with dynamic energy `joules`.
  void record_transition(GateId id, double joules) {
    integrate_leakage();
    gates_[id].dynamic_j += joules;
    ++total_transitions_;
    dynamic_j_ += joules;
  }

  /// Integrate leakage up to the current kernel time at the present
  /// supply voltage (called internally on every transition; call
  /// explicitly before reading totals at a quiet moment). Transitions
  /// at one timestamp integrate nothing, so that return is inline.
  void integrate_leakage() {
    const sim::Time now = kernel_->now();
    if (now > last_leak_integration_) integrate_leakage_to(now);
  }

  // --- queries ---------------------------------------------------------
  std::uint64_t total_transitions() const { return total_transitions_; }
  double dynamic_energy() const { return dynamic_j_; }
  double leakage_energy() const { return leakage_j_; }
  double total_energy() const { return dynamic_j_ + leakage_j_; }
  std::size_t gate_count() const { return gates_.size(); }
  const std::string& gate_name(GateId id) const { return gates_[id].name; }
  double gate_dynamic_energy(GateId id) const { return gates_[id].dynamic_j; }

  /// Dynamic energy rolled up by the first `depth` components of the
  /// hierarchical name ("sram.ctl.c1" at depth 2 -> "sram.ctl").
  std::map<std::string, double> energy_by_prefix(std::size_t depth) const;

 private:
  struct Entry {
    std::string name;
    double leak_width;
    double dynamic_j = 0.0;
  };

  static std::string prefix_of(const std::string& name, std::size_t depth);
  /// integrate_leakage()'s out-of-line half: time advanced to `now`.
  void integrate_leakage_to(sim::Time now);

  sim::Kernel* kernel_;
  device::LeakageModel leakage_;
  supply::Supply* supply_;
  std::vector<Entry> gates_;
  // Memoized leakage power at the current supply state: leakage energy is
  // linear in dt at fixed voltage, so the exp() inside LeakageModel runs
  // only when Supply::voltage_epoch() advances or a gate registers.
  std::uint64_t leak_epoch_ = 0;       // 0 = cache invalid
  double leak_power_w_ = 0.0;
  double total_leak_width_ = 0.0;
  std::uint64_t total_transitions_ = 0;
  double dynamic_j_ = 0.0;
  double leakage_j_ = 0.0;
  sim::Time last_leak_integration_ = 0;
};

}  // namespace emc::gates
