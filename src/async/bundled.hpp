// Bundled-data counter — the paper's "Design 2".
//
// The increment datapath is single-rail (cheap: no rail duplication, no
// completion detector); timing comes from a matched inverter-chain delay
// line sized with a safety margin at a calibration voltage. The latch
// captures when the delay line's wavefront arrives, *assuming* the
// datapath has settled — an assumption, not an observation.
//
// The failure mechanism is exactly the paper's Fig. 5 argument: the
// datapath contains stacked/wide gates whose effective threshold sits
// above the plain-inverter ruler's, so as Vdd falls the datapath slows
// faster than the delay line and the margin melts away. Below a critical
// voltage the latch captures garbage; the counter still runs, but its
// QoS (correct increments) collapses — which is why Design 2 is
// power-efficient at nominal Vdd yet not power-proportional.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gates/combinational.hpp"
#include "gates/gate.hpp"
#include "netlist/module.hpp"
#include "sim/signal.hpp"

namespace emc::async {

struct BundledParams {
  std::size_t bits = 2;
  /// Vdd at which the delay line is sized.
  double calibration_vdd = 1.0;
  /// Delay-line length = margin * (datapath delay at calibration Vdd).
  double margin = 1.5;
  /// Effective extra threshold of the datapath's stacked gates [V] —
  /// the Vdd-scaling mismatch source.
  double datapath_vth_offset = 0.05;
};

class BundledCounter {
 public:
  BundledCounter(gates::Context& ctx, std::string name, BundledParams params);

  void start();

  /// Completed capture cycles.
  std::uint64_t count() const { return count_; }
  /// Captures whose datapath had not settled (wrong code latched).
  std::uint64_t errors() const { return errors_; }

  /// Connectivity inventory (static lint and timing), mutable so a
  /// figure hook can declare the operating range it sweeps and place
  /// build-site suppressions before handing it to an analyzer.
  netlist::Circuit& circuit() { return circuit_; }

 private:
  void launch();
  void on_line_output();

  netlist::Circuit circuit_;
  BundledParams params_;
  sim::Wire* go_ = nullptr;
  std::vector<sim::Wire*> state_wires_;
  std::vector<sim::Wire*> data_wires_;
  bool running_ = false;  // set by start(); a second start() is a no-op
  bool line_phase_ = false;  ///< expected polarity of the line output
  std::uint64_t state_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t errors_ = 0;
  gates::EnergyMeter::GateId latch_meter_ = 0;
};

}  // namespace emc::async
