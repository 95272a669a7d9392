// TOGGLE element (Fig. 10, from Varshavsky's group [3]).
//
// Semantics: every transition on the input produces a transition on
// exactly one of the two outputs, alternating — the first, third, fifth…
// input events move `dot`, the even ones move `blank`. Used as a
// frequency divider: `dot` changes once per full input cycle, so a chain
// of toggles is a binary ripple counter, and with the LSB input wired as
// an oscillator it becomes the charge-to-digital converter of Fig. 9.
//
// The element is modelled behaviourally with the energy/delay footprint
// of its gate-level realization (~3 gate delays, ~6 inverter-equivalents
// of switched capacitance per fire), which is what the paper's "strong
// proportionality between charge and counts" rests on. Input events that
// arrive while a fire is in flight are queued and served in order, so no
// event is ever lost — the property that makes the counter's code exact.
#pragma once

#include <cstdint>
#include <string>

#include "device/delay_model.hpp"
#include "gates/energy_meter.hpp"
#include "gates/gate.hpp"
#include "sim/signal.hpp"

namespace emc::gates {

class Toggle {
 public:
  Toggle(Context& ctx, std::string name, sim::Wire& in, sim::Wire& dot,
         sim::Wire& blank, double vth_offset = 0.0);
  ~Toggle();

  Toggle(const Toggle&) = delete;
  Toggle& operator=(const Toggle&) = delete;

  /// Total completed fires (= input transitions served).
  std::uint64_t fires() const { return fires_; }

  /// Equivalent-gate footprint of one fire (documented model constants).
  static constexpr double kDelayStages = 3.0;
  static constexpr double kCapFactor = 6.0;
  static constexpr double kLeakWidth = 12.0;

 private:
  void on_input();
  void try_fire();
  void apply();
  void enter_stall();
  void retry();

  Context* ctx_;
  sim::Wire* dot_;
  sim::Wire* blank_;
  DriveArena::Slot hot_;  ///< this element's lane in ctx_->drives
  EnergyMeter::GateId meter_id_ = 0;

  std::uint64_t unserved_ = 0;  ///< input events not yet fired
  bool in_flight_ = false;
  bool phase_dot_ = true;  ///< which output moves next
  bool stalled_ = false;
  std::uint64_t fires_ = 0;
};

}  // namespace emc::gates
