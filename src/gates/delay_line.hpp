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

#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/signal.hpp"

namespace emc::netlist {
class Circuit;
}

namespace emc::gates {

class DelayLine {
 public:
  /// A chain of `stages` inverters fed by `input`, built into `c` as
  /// `<local>.t<i>` taps driven by `<local>.inv<i>` gates. Every tap is a
  /// real wire driven by a real gate, so the wavefront position is
  /// observable and the chain's energy is metered like any other logic;
  /// the circuit records each stage's edges and timing arc. With a
  /// non-null `rng` and `vth_sigma` > 0, each stage additionally receives
  /// a Gaussian per-instance threshold mismatch of `vth_sigma` volts.
  DelayLine(netlist::Circuit& c, const std::string& local, sim::Wire& input,
            std::size_t stages, double vth_offset = 0.0,
            double vth_sigma = 0.0, sim::Rng* rng = nullptr);

  sim::Wire& output() { return *taps_.back(); }

  /// Capture the present tap values as the reference state.
  void capture_baseline();

  /// Number of leading taps that have flipped relative to the captured
  /// baseline — the thermometer code of the sensor. Counts the prefix
  /// only (a genuine thermometer), so a clean wavefront at position k
  /// yields k.
  std::size_t thermometer_code() const;

 private:
  std::vector<sim::Wire*> taps_;
  std::vector<bool> baseline_;
};

}  // namespace emc::gates
