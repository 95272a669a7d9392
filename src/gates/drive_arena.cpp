#include "gates/drive_arena.hpp"

#include "device/delay_model.hpp"

namespace emc::gates {

DriveArena::Slot DriveArena::acquire(double delay_cload, double switch_cload,
                                     double vth_offset, double strength) {
  Slot s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<Slot>(epoch_.size());
    epoch_.push_back(0);
    delay_epoch_.push_back(0);
    vdd_.push_back(0.0);
    delay_.push_back(0);
    charge_.push_back(0.0);
    energy_.push_back(0.0);
    op_.push_back(kOpUnknown);
    delay_cload_.push_back(0.0);
    switch_cload_.push_back(0.0);
    vth_offset_.push_back(0.0);
    strength_.push_back(1.0);
  }
  epoch_[s] = 0;
  delay_epoch_[s] = 0;
  op_[s] = kOpUnknown;
  delay_cload_[s] = delay_cload;
  switch_cload_[s] = switch_cload;
  vth_offset_[s] = vth_offset;
  strength_[s] = strength;
  return s;
}

void DriveArena::release(Slot s) {
  if (op_[s] == kOpStalled) --stalled_live_;
  op_[s] = kOpUnknown;
  free_.push_back(s);
}

bool DriveArena::recompute(Slot s, std::uint64_t epoch,
                           const supply::Supply& supply,
                           const device::DelayModel& model) {
  epoch_[s] = epoch;
  const double vdd = supply.cached_voltage(epoch);
  vdd_[s] = vdd;
  const std::uint8_t prev = op_[s];
  if (!model.operational(vdd)) {
    if (prev != kOpStalled) {
      op_[s] = kOpStalled;
      ++stalled_live_;
      ++stall_entries_;
    }
    return false;
  }
  if (prev == kOpStalled) {
    --stalled_live_;
    ++recoveries_;
  }
  op_[s] = kOpUp;
  charge_[s] = model.switching_charge(vdd, switch_cload_[s]);
  energy_[s] = model.switching_energy(vdd, switch_cload_[s]);
  return true;
}

sim::Time DriveArena::recompute_delay(Slot s,
                                      const device::DelayModel& model) {
  delay_epoch_[s] = epoch_[s];
  delay_[s] =
      model.delay(vdd_[s], delay_cload_[s], vth_offset_[s], strength_[s]);
  return delay_[s];
}

}  // namespace emc::gates
