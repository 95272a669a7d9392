// Inverter-chain delay lines.
//
// Two uses straight from the paper:
//  * the matched ("bundled") delay of Design 2 — a chain sized to exceed
//    the datapath delay at the calibration voltage, which loses the race
//    at other voltages because datapath and chain scale differently;
//  * the "ruler" of the reference-free voltage sensor (Fig. 12) — a
//    wavefront launched into the chain is frozen when the racing SRAM
//    read completes, and the flipped-tap count is the thermometer code.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gates/combinational.hpp"
#include "gates/gate.hpp"
#include "sim/random.hpp"

namespace emc::netlist {
class Circuit;
}

namespace emc::gates {

class DelayLine {
 public:
  /// A chain of `stages` inverters fed by `input`. Every tap is a real
  /// wire driven by a real gate, so the wavefront position is observable
  /// and the chain's energy is metered like any other logic.
  DelayLine(Context& ctx, std::string name, sim::Wire& input,
            std::size_t stages, double vth_offset = 0.0);

  /// Monte-Carlo variant: each stage additionally receives a Gaussian
  /// per-instance threshold mismatch of `vth_sigma` volts.
  DelayLine(Context& ctx, std::string name, sim::Wire& input,
            std::size_t stages, double vth_offset, double vth_sigma,
            sim::Rng& rng);

  sim::Wire& output() { return *taps_.back(); }

  /// Capture the present tap values as the reference state.
  void capture_baseline();

  /// Number of leading taps that have flipped relative to the captured
  /// baseline — the thermometer code of the sensor. Counts the prefix
  /// only (a genuine thermometer), so a clean wavefront at position k
  /// yields k.
  std::size_t thermometer_code() const;

  /// Record this chain's structure (stage gates, tap wires, edges) into
  /// `c`'s connectivity inventory so the static linter and timing
  /// analyzer see through the composite instead of a blank spot.
  void describe_into(netlist::Circuit& c) const;

 private:
  DelayLine(Context& ctx, std::string name, sim::Wire& input,
            std::size_t stages, double vth_offset, double vth_sigma,
            sim::Rng* rng);

  std::string input_name_;
  std::vector<std::unique_ptr<sim::Wire>> taps_;
  std::vector<std::unique_ptr<CombGate>> gates_;
  std::vector<bool> baseline_;
};

}  // namespace emc::gates
