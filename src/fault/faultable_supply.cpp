#include "fault/faultable_supply.hpp"

#include <algorithm>

namespace emc::fault {

FaultableSupply::FaultableSupply(supply::Supply& inner)
    : Supply(inner.kernel(), inner.name()), inner_(&inner) {
  // Any inner voltage change (draw, deposit, AC time advance) must
  // invalidate the wrapper's consumers too.
  set_voltage_epoch_parent(&inner);
  // Inner wake events (a storage cap recharging past its threshold)
  // reach gates registered on the wrapper.
  inner.on_wake([this] { fire_wake(); });
}

void FaultableSupply::begin_fault(double scale) {
  active_.push_back(scale < 0.0 ? 0.0 : scale);
  ++faults_seen_;
  bump_voltage_epoch();
}

void FaultableSupply::end_fault(double scale) {
  const auto it =
      std::find(active_.begin(), active_.end(), scale < 0.0 ? 0.0 : scale);
  if (it != active_.end()) active_.erase(it);
  bump_voltage_epoch();
  // Recovery wake: parked gates re-sample the (possibly restored)
  // voltage. Harmless if another, deeper window is still active — the
  // retry path re-parks below the resume threshold.
  fire_wake();
}

}  // namespace emc::fault
