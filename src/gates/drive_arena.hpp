// Struct-of-arrays store for the per-element switching hot path.
//
// Every switching element (Gate, Toggle) owns one slot holding its
// quasi-static drive state: the supply-epoch stamp, the operational
// flag, the supply voltage seen at the last refresh, the per-transition
// charge/energy and the propagation delay, plus the device point that
// parameterizes them (load capacitances, Vth offset, drive strength).
// Charge and energy are refreshed in every supply epoch, because every
// applied transition bills them. The delay is computed only when
// scheduling: delay(slot, model) evaluates the delay model on its first
// read in an epoch (it keeps its own stamp), so the refresh an element
// does when a transition lands — where nothing reads the delay — costs
// no delay evaluation. One arena lives inside each gates::Context, so a
// circuit's hot state sits in a handful of dense arrays instead of
// being scattered across gate objects: the epoch-check every event
// performs touches one cache-packed lane, and a supply-epoch bump
// (Fig. 4 style modulated supplies) re-walks arrays the prefetcher
// likes instead of pointer-chasing the netlist.
//
// Slots are index-stable for the element's lifetime (elements capture
// their slot in scheduled callbacks) and recycled through a free list
// on release, so sweeps that build and tear down thousands of circuits
// against one Context reuse the same arrays at steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "supply/supply.hpp"

namespace emc::device {
class DelayModel;
}

namespace emc::gates {

class DriveArena {
 public:
  using Slot = std::uint32_t;

  /// Explicit operational-lane states. A fresh slot is kOpUnknown until
  /// its first refresh. Transitions are counted: entering kOpStalled
  /// (from up or unknown — powering on below the floor is a stall too)
  /// is a stall entry, kOpStalled -> kOpUp a recovery.
  enum : std::uint8_t { kOpStalled = 0, kOpUp = 1, kOpUnknown = 2 };

  /// Claim a slot for an element with the given load capacitances
  /// (`delay_cload` sizes the delay, `switch_cload` the per-transition
  /// charge/energy) and device point. The slot starts invalid: the
  /// first refresh() computes it.
  Slot acquire(double delay_cload, double switch_cload, double vth_offset,
               double strength);

  /// Return a slot to the free list (element destruction).
  void release(Slot s);

  /// Revalidate slot `s` against the supply; returns the operational
  /// flag at the current voltage. Recomputes the flag, charge and
  /// energy only when the supply's voltage_epoch() has advanced past the
  /// slot's stamp, reading the rail through Supply::cached_voltage().
  /// The unchanged-epoch return is inline: two refreshes per applied
  /// transition make it the hottest call of an event.
  bool refresh(Slot s, const supply::Supply& supply,
               const device::DelayModel& model) {
    const std::uint64_t e = supply.voltage_epoch();
    if (e == epoch_[s]) return op_[s] == kOpUp;
    return recompute(s, e, supply, model);
  }

  // --- cached drive state (valid after a true refresh()) ---
  /// Propagation delay at the voltage of the last refresh(). Evaluates
  /// the delay model once per epoch, on the first call after the
  /// refresh; on a constant supply that is once per element.
  sim::Time delay(Slot s, const device::DelayModel& model) {
    if (delay_epoch_[s] == epoch_[s]) return delay_[s];
    return recompute_delay(s, model);
  }
  double charge(Slot s) const { return charge_[s]; }
  double energy(Slot s) const { return energy_[s]; }

  // --- device point ---
  /// Change the device point of `s`; the next refresh() and delay()
  /// recompute (the delay depends on both, so both stamps reset).
  void set_device(Slot s, double vth_offset, double strength) {
    vth_offset_[s] = vth_offset;
    strength_[s] = strength;
    epoch_[s] = 0;
    delay_epoch_[s] = 0;
  }

  // --- brownout census (the quiescence-probe and figure hooks) ---
  /// True while any live slot is below the operating floor.
  bool any_stalled() const { return stalled_live_ > 0; }
  /// Cumulative up->down transitions observed by refresh().
  std::uint64_t stall_entries() const { return stall_entries_; }
  /// Cumulative down->up transitions (brownout recoveries).
  std::uint64_t recoveries() const { return recoveries_; }

 private:
  // The out-of-line halves of refresh() and delay(): the epoch moved.
  bool recompute(Slot s, std::uint64_t epoch, const supply::Supply& supply,
                 const device::DelayModel& model);
  sim::Time recompute_delay(Slot s, const device::DelayModel& model);

  // Hot lanes: read on every refresh() (i.e. every scheduled output).
  std::vector<std::uint64_t> epoch_;  // 0 = invalid (epochs start at 1)
  // Epoch delay_ was computed in; 0 = stale. delay_ is valid only while
  // this equals epoch_.
  std::vector<std::uint64_t> delay_epoch_;
  std::vector<double> vdd_;  // supply voltage at the last refresh
  std::vector<sim::Time> delay_;
  std::vector<double> charge_;
  std::vector<double> energy_;
  std::vector<std::uint8_t> op_;  // kOpStalled / kOpUp / kOpUnknown
  // Cold lanes: read only when the epoch advances and the drive state
  // actually recomputes.
  std::vector<double> delay_cload_;
  std::vector<double> switch_cload_;
  std::vector<double> vth_offset_;
  std::vector<double> strength_;
  std::vector<Slot> free_;
  std::size_t stalled_live_ = 0;
  std::uint64_t stall_entries_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace emc::gates
