// Ring-oscillator voltage sensor — the published baseline [6].
//
// An inverter ring powered from the measured rail: its frequency is a
// monotonic function of Vdd, counted over a *fixed gate window* — which
// is precisely its weakness: it needs a time reference, which an
// energy-harvesting system does not have. Included so the benches can
// contrast it with the paper's reference-free sensor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "gates/gate.hpp"
#include "netlist/module.hpp"
#include "sim/signal.hpp"

namespace emc::sensor {

struct RingOscParams {
  std::size_t stages = 5;          ///< ring length (odd)
  sim::Time gate_window = sim::us(1);  ///< counting window (needs a clock!)
};

class RingOscillatorSensor {
 public:
  RingOscillatorSensor(gates::Context& ctx, std::string name,
                       RingOscParams params);

  RingOscillatorSensor(const RingOscillatorSensor&) = delete;
  RingOscillatorSensor& operator=(const RingOscillatorSensor&) = delete;

  /// Count ring transitions over the gate window; the count is the code.
  /// Re-armable: once a measurement completes (callback delivered), the
  /// next measure() starts a fresh window. Overlapping measurements are
  /// a caller bug (asserted).
  void measure(std::function<void(std::uint64_t)> cb);

  /// Predicted code at constant `vdd` (window / ring period).
  double expected_code(double vdd) const;

  bool measuring() const { return measuring_; }

  /// Connectivity inventory (static lint and timing).
  const netlist::Circuit& circuit() const { return circuit_; }

 private:
  netlist::Circuit circuit_;
  RingOscParams params_;
  sim::Wire* enable_;
  sim::Wire* out_;
  bool measuring_ = false;
  /// Liveness token: the window-close event captures `this`, and the
  /// sensor may be destroyed before it fires; the closure locks the
  /// token before touching `this` (the sram::SteppedAccess idiom).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace emc::sensor
