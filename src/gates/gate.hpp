// Voltage-aware gate base class.
//
// A Gate watches its input wires; on any change it re-evaluates and, if
// the output must move, schedules the transition after a delay computed
// from the *current* supply voltage (quasi-static approximation — supply
// transients are slow compared with one gate delay, and capacitor
// droop per transition is ~1e-5 of Vdd). When the transition matures the
// gate bills C*V and C*V^2 through Context::bill (supply, then meter).
//
// Inertial semantics: re-evaluation while a transition is in flight either
// confirms it (kept), or retracts it (pulse shorter than the gate delay is
// swallowed) — the behaviour speed-independence proofs assume.
//
// Stalling: if the supply is below Tech::vmin_operate at schedule or
// apply time, the gate parks. It resumes via supply wake callbacks
// (storage caps) or by polling at supply.retry_hint() (AC sources). This
// is how the Fig. 4 counter freezes in the troughs of the 1 MHz supply
// and continues, state intact, on the next crest.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "device/delay_model.hpp"
#include "gates/drive_arena.hpp"
#include "gates/energy_meter.hpp"
#include "sim/signal.hpp"
#include "supply/supply.hpp"

namespace emc::gates {

/// Everything a gate needs from its environment; one Context is shared
/// by all gates of a circuit. `drives` is the struct-of-arrays store
/// for the elements' quasi-static drive state (delay / charge / energy
/// at the supply state identified by Supply::voltage_epoch()): each
/// switching element claims a slot at construction. refresh_drive()
/// recomputes the operational flag, charge and energy only when the
/// epoch advances — every epoch, since every applied transition bills
/// them. drives.delay() computes the delay only when scheduling, at most
/// once per epoch, so on a constant supply the delay model runs exactly
/// once per element — the quasi-static approximation the Gate header
/// documents, made explicit.
///
/// Elements keep their state across a brownout: a stalled element
/// resumes exactly where it parked, which is the retention the paper's
/// Fig. 4 counter relies on.
struct Context {
  sim::Kernel& kernel;
  const device::DelayModel& model;
  supply::Supply& supply;
  EnergyMeter& meter;
  DriveArena drives{};  ///< per-element hot state (SoA)

  /// Revalidate drive slot `s` against this context's supply; returns
  /// whether the element is operational at the current voltage.
  bool refresh_drive(DriveArena::Slot s) {
    return drives.refresh(s, supply, model);
  }

  /// Bill one switching event: draw `charge` and `energy` from the
  /// supply, then record `energy` against meter entry `id`. The one
  /// place an element pays for a transition, so the rail and the meter
  /// add the same values in the same order.
  void bill(EnergyMeter::GateId id, double charge, double energy) {
    supply.draw(charge, energy);
    meter.record_transition(id, energy);
  }
};

class Gate {
 public:
  /// `delay_stages` — delay in units of a reference inverter (a complex
  /// cell like a C-element counts ~2); `cap_factor` — switched
  /// capacitance in units of the reference inverter's; `vth_offset` —
  /// per-instance threshold shift (process corner / Monte-Carlo mismatch).
  Gate(Context& ctx, std::string name, sim::Wire& out, double delay_stages,
       double cap_factor, double vth_offset = 0.0, double leak_width = 3.0);
  virtual ~Gate();

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  const std::string& name() const { return name_; }

  /// Wire this gate to listen to `w` (call once per input).
  void listen(sim::Wire& w);

  /// Force an evaluation (used at power-on to settle initial values).
  void touch() { on_input_change(); }

  bool stalled() const { return stalled_; }

  /// Per-instance device point (Vth shift, drive-strength multiplier;
  /// 1.0 = nominal device), held in the context's DriveArena slot.
  double vth_offset() const { return ctx_->drives.vth_offset(hot_); }
  double strength() const { return ctx_->drives.strength(hot_); }

 protected:
  /// Compute the target output value from the current input values.
  /// `current` is the present output (for state-holding gates).
  virtual bool evaluate(bool current) const = 0;

  /// Derived classes with internal state (toggle) may need to know
  /// when the scheduled output actually commits.
  virtual void on_output_committed() {}

  void on_input_change();

 private:
  void schedule_output(bool target);
  void apply_output(bool target, std::uint64_t generation);
  void enter_stall();
  void retry();

  Context* ctx_;
  std::string name_;
  sim::Wire* out_;
  DriveArena::Slot hot_;  ///< this gate's lane in ctx_->drives
  EnergyMeter::GateId meter_id_ = 0;

  bool pending_ = false;
  bool pending_value_ = false;
  std::uint64_t generation_ = 0;
  bool stalled_ = false;
  bool stall_target_ = false;
};

}  // namespace emc::gates
