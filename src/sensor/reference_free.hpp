// Reference-free voltage sensor (Fig. 12, [10]).
//
// Two circuits race off the same measured rail: an SRAM-cell read
// (Circuit 1 — the slow, high-effective-Vth path) against an inverter
// chain (Circuit 2 — the "ruler"). The SRAM completion event freezes a
// thermometer code: how many ruler taps the wavefront passed. Because
// the SRAM slows down *faster* than logic as Vdd drops (the Fig. 5
// mismatch), the code is a monotone function of Vdd — ~50 at 1 V rising
// to ~158 at 190 mV — giving a purely digital voltage readout with no
// time or voltage reference anywhere. The same mechanism that breaks
// bundled timing is here harnessed as the sensing principle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "gates/delay_line.hpp"
#include "gates/gate.hpp"
#include "netlist/module.hpp"
#include "sim/random.hpp"
#include "sram/bitline.hpp"
#include "sram/cell.hpp"

namespace emc::sensor {

struct RefFreeParams {
  std::size_t ruler_stages = 200;  ///< must exceed the max expected code
  sram::CellParams cell{};
  sram::BitlineParams bitline{};
  /// The sensor's column is dedicated: its dummy load cells all store the
  /// discharge-direction value, so they do not leak against the sensing
  /// cell — only a handful of effective leakers remain. This is what
  /// lets the silicon sensor reach 0.2 V while a live 64-cell array
  /// column saturates near 0.25 V. (Set to 64 to model racing a live
  /// array column instead.)
  std::size_t effective_leak_cells = 8;
  /// Gaussian Vth mismatch per ruler inverter [V] (Monte-Carlo runs).
  double ruler_vth_sigma = 0.0;
  /// Mismatch on the sensing cell [V].
  double cell_vth_offset = 0.0;
};

struct RefFreeReading {
  std::uint64_t code = 0;
  bool valid = true;       ///< false when the cell was not sensable
  bool saturated = false;  ///< wavefront ran off the ruler
  double duration_s = 0.0;
};

class ReferenceFreeSensor {
 public:
  ReferenceFreeSensor(gates::Context& ctx, std::string name,
                      RefFreeParams params, sim::Rng* rng = nullptr);

  /// Launch one measurement; `cb` fires with the thermometer code when
  /// the SRAM read completes (plus ruler settle before the next one).
  void measure(std::function<void(const RefFreeReading&)> cb);

  bool measuring() const { return measuring_; }

  /// Closed-form expected code at constant `vdd` (the Fig. 5 ratio).
  double expected_code(double vdd) const;

  /// Connectivity inventory (static lint and timing).
  const netlist::Circuit& circuit() const { return circuit_; }

 private:
  void on_sram_complete();
  void settle_then_report();

  gates::Context* ctx_;
  netlist::Circuit circuit_;
  RefFreeParams params_;
  sram::CellModel cell_;
  sram::BitlineDynamics bitline_;
  sim::Wire* launch_;
  gates::DelayLine ruler_;
  std::unique_ptr<sram::SteppedAccess> access_;
  bool measuring_ = false;
  RefFreeReading pending_;
  sim::Time started_ = 0;
  std::function<void(const RefFreeReading&)> cb_;
};

}  // namespace emc::sensor
