// Muller C-element — the fundamental state-holding gate of
// speed-independent logic [3].
//
// Output rises when *all* inputs are 1, falls when *all* are 0, and holds
// otherwise. Completion detection, handshake joins and the SI SRAM
// controller are built from these.
#pragma once

#include <vector>

#include "gates/gate.hpp"

namespace emc::gates {

class CElement final : public Gate {
 public:
  CElement(Context& ctx, std::string name, std::vector<sim::Wire*> inputs,
           sim::Wire& out, double vth_offset = 0.0);

  /// Delay and capacitance factors the constructor charges: a C-element
  /// is ~two inverting stages driving a fanin-dependent load.
  /// Circuit::celement records delay_stages() * cap_factor(fanin) as the
  /// timing-arc load, so the static model and the simulated gate agree
  /// by construction.
  static constexpr double delay_stages() { return 2.0; }
  static double cap_factor(std::size_t fanin) {
    return 2.0 + 0.6 * static_cast<double>(fanin);
  }

 protected:
  bool evaluate(bool current) const override;

 private:
  std::vector<sim::Wire*> inputs_;
};

}  // namespace emc::gates
