// Sub-threshold leakage model.
//
// Leakage current of a block of `width` unit devices at supply V:
//
//     I_leak(V) = width * i_leak_unit * exp(dibl * (V - 1) / (n VT))
//
// i.e. the value at V = 1 V is the technology number and DIBL reduces it
// as the supply drops. Leakage *energy* of an operation is
// V * I_leak(V) * T_op(V); because T_op grows steeply at low Vdd this term
// eventually dominates the shrinking C*V^2 dynamic energy — producing the
// minimum-energy point the paper reports at ~0.4 V for the SI SRAM.
#pragma once

#include "device/tech.hpp"

namespace emc::device {

class LeakageModel {
 public:
  explicit LeakageModel(const Tech& tech) : tech_(tech) {}

  /// Leakage current [A] of `width` unit-width devices at supply `vdd`.
  double current(double vdd, double width) const;

  /// Leakage power [W] at supply `vdd`.
  double power(double vdd, double width) const {
    return vdd * current(vdd, width);
  }

  /// Leakage width-multiplier of an 8T cell relative to 6T: the two extra
  /// stacked NMOS read transistors *reduce* bit-line leakage (stack
  /// effect), the mechanism behind the paper's suggested 8T upgrade.
  static constexpr double k8tStackFactor = 0.35;

 private:
  Tech tech_;
};

}  // namespace emc::device
