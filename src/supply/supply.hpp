// Power-supply abstraction.
//
// The central idea of the paper is that the supply *modulates* the
// computation, so the supply is a first-class simulation object: every
// gate asks it for the instantaneous voltage (which sets the gate's
// delay) and returns the charge/energy of each output transition (which,
// for capacitor-backed supplies, lowers the voltage — closing the
// energy-to-computation feedback loop of the charge-to-digital
// converter).
//
// Stall protocol: when a gate finds the voltage below Tech::vmin_operate
// it suspends and asks the supply how to resume. Time-driven supplies
// (AC) give a finite retry_hint() and the gate polls; storage-backed
// supplies fire wake callbacks when recharging crosses the resume
// threshold; exhausted sample capacitors return kTimeMax and the circuit
// simply freezes — exactly the paper's "operate while energy lasts".
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace emc::gates {
class DriveArena;
class EnergyMeter;
}  // namespace emc::gates

namespace emc::supply {

class Supply {
 public:
  explicit Supply(sim::Kernel& kernel, std::string name)
      : kernel_(&kernel), name_(std::move(name)) {}
  virtual ~Supply() = default;

  Supply(const Supply&) = delete;
  Supply& operator=(const Supply&) = delete;

  const std::string& name() const { return name_; }
  sim::Kernel& kernel() const { return *kernel_; }

  /// Instantaneous supply voltage [V] at the kernel's current time.
  virtual double voltage() const = 0;

  /// The load draws `charge` [C] / `energy` [J] (one gate transition or a
  /// batched macro-op). Default implementation only does bookkeeping;
  /// capacitor-backed supplies also drop their voltage.
  ///
  /// Defensive invariant: a draw must be finite and non-negative. A
  /// non-finite or negative draw (a NaN-poisoned model, a faulted
  /// upstream) is rejected — counted in rejected_draws(), otherwise a
  /// no-op — instead of corrupting the store. Subclass overrides call
  /// the base first and return if the draw was rejected
  /// (`if (!draw_ok(charge, energy)) return;` after `Supply::draw`).
  /// Inline, so the overrides' calls to it cost no call of their own.
  virtual void draw(double charge, double energy) {
    if (!draw_ok(charge, energy)) {
      ++rejected_draws_;
      return;
    }
    total_charge_ += charge;
    total_energy_ += energy;
    ++draw_count_;
  }

  /// How long a stalled gate should wait before re-sampling the voltage.
  /// kTimeMax means "don't poll, wait for wake()" (or never, if the
  /// supply cannot recover).
  virtual sim::Time retry_hint() const { return sim::kTimeMax; }

  /// Register a callback fired when a non-time-driven supply becomes able
  /// to power the load again (e.g. a storage capacitor recharged).
  void on_wake(sim::Action fn) { wake_listeners_.push_back(std::move(fn)); }

  /// Monotone counter identifying the supply's voltage state: equal
  /// return values from two calls guarantee voltage() was unchanged in
  /// between. Gates and meters key their quasi-static caches on it —
  /// delay/energy are recomputed only when this advances, which is the
  /// quasi-static approximation the Gate header documents made explicit.
  /// Subclasses whose voltage changes by *action* (draws, deposits,
  /// commanded level changes) call bump_voltage_epoch(); subclasses whose
  /// voltage is a function of *time* (AC, waveform) mark themselves
  /// time-varying, advancing the epoch whenever simulation time has;
  /// wrappers (fault::FaultableSupply) chain to the rail they wrap via an
  /// epoch parent.
  std::uint64_t voltage_epoch() const {
    if (time_varying_ && kernel_->now() != epoch_time_) {
      epoch_time_ = kernel_->now();
      ++epoch_;
    }
    std::uint64_t e = epoch_;
    if (epoch_parent_ != nullptr) e += epoch_parent_->voltage_epoch();
    return e;
  }

  /// voltage(), evaluated at most once per voltage_epoch(): later calls
  /// in the same epoch return the remembered level. The quasi-static
  /// caches (DriveArena::refresh, EnergyMeter::integrate_leakage) read
  /// the rail through it, so the refresh that follows a draw reuses the
  /// level the meter just read instead of recomputing it.
  double cached_voltage() const { return cached_voltage(voltage_epoch()); }

  /// Cumulative bookkeeping.
  double total_charge_drawn() const { return total_charge_; }
  double total_energy_drawn() const { return total_energy_; }
  std::uint64_t draw_count() const { return draw_count_; }
  /// Draws rejected by the defensive invariant (non-finite or negative).
  std::uint64_t rejected_draws() const { return rejected_draws_; }

 protected:
  /// The defensive draw invariant (see draw()). NaN fails `>= 0`.
  static bool draw_ok(double charge, double energy) {
    return charge >= 0.0 && energy >= 0.0 && std::isfinite(charge) &&
           std::isfinite(energy);
  }
  /// Record that voltage() may now return a different value (see
  /// voltage_epoch). Cheap enough to call unconditionally from draw().
  void bump_voltage_epoch() { ++epoch_; }

  /// Declare voltage() a function of simulation time (AC/waveform
  /// supplies): every new timestamp invalidates quasi-static caches.
  void set_time_varying_voltage() { time_varying_ = true; }

  /// Chain this supply's epoch to the supply it forwards: any
  /// voltage change of `parent` invalidates this supply's consumers too.
  void set_voltage_epoch_parent(const Supply* parent) {
    epoch_parent_ = parent;
  }

  void fire_wake() {
    // A listener may call on_wake() from inside its own callback (the
    // scheduler re-arms itself when it stalls again mid-wake). Walking
    // wake_listeners_ in place would let that push_back reallocate the
    // vector and destroy the closure currently executing, so the firing
    // set is moved into stable local storage first; registrations made
    // during the walk land in wake_listeners_ and run on the next wake.
    std::vector<sim::Action> firing;
    firing.swap(wake_listeners_);
    for (auto& fn : firing) fn();
    // Keep all listeners, original registrations first.
    for (auto& fn : wake_listeners_) firing.push_back(std::move(fn));
    wake_listeners_ = std::move(firing);
  }

 private:
  // The quasi-static caches read the epoch first to test their own stamp
  // and hand it here, sparing a second walk of the epoch-parent chain.
  friend class gates::DriveArena;
  friend class gates::EnergyMeter;

  /// cached_voltage() for a caller holding `epoch`, the value
  /// voltage_epoch() returned with no state change since.
  double cached_voltage(std::uint64_t epoch) const {
    if (epoch != cached_epoch_) {
      cached_epoch_ = epoch;
      cached_volts_ = voltage();
    }
    return cached_volts_;
  }

  sim::Kernel* kernel_;
  std::string name_;
  std::vector<sim::Action> wake_listeners_;
  const Supply* epoch_parent_ = nullptr;
  // mutable: voltage_epoch() lazily folds the advancing clock into the
  // counter for time-varying supplies; a Kernel is single-threaded.
  mutable std::uint64_t epoch_ = 1;
  mutable sim::Time epoch_time_ = 0;
  // cached_voltage()'s memo; epoch 0 never occurs, so it starts stale.
  mutable std::uint64_t cached_epoch_ = 0;
  mutable double cached_volts_ = 0.0;
  bool time_varying_ = false;
  double total_charge_ = 0.0;
  double total_energy_ = 0.0;
  std::uint64_t draw_count_ = 0;
  std::uint64_t rejected_draws_ = 0;
};

}  // namespace emc::supply
