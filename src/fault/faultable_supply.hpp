// Transparent fault decorator for any Supply.
//
// FaultableSupply wraps a load rail and scales its voltage by the
// minimum of the currently active fault windows (1.0 when none):
// `begin_fault(0.0)` is a dropout, `begin_fault(0.5)` a brownout to
// half rail. Everything else forwards — draws reach the inner supply
// (so storage physics and bookkeeping are untouched), retry hints come
// from the inner supply, the voltage epoch chains to the inner supply's
// (so a fault transition or an inner draw both invalidate quasi-static
// gate caches), and inner wake events propagate through.
//
// The wrapper with zero windows is byte-identical to the bare rail —
// the property EMC_FAULT_SMOKE=1 smokes across the whole tier-1 suite
// by interposing it under every elaborated SupplyConfig.
//
// Fault windows arrive as begin/end pairs scheduled by a FaultPlan.
// Windows from independent streams may overlap: active scales live in a
// small multiset-like vector, end_fault(scale) retires one instance of
// that scale, and the effective scale is the minimum — the deepest
// active fault wins, and symmetric removal keeps overlap handling
// order-independent.
#pragma once

#include <algorithm>
#include <vector>

#include "supply/supply.hpp"

namespace emc::fault {

class FaultableSupply final : public supply::Supply {
 public:
  /// Wrap `inner` (same kernel, same name — reports and traces keep
  /// reading the rail they always did).
  explicit FaultableSupply(supply::Supply& inner);

  double voltage() const override { return inner_->voltage() * scale(); }

  void draw(double charge, double energy) override {
    Supply::draw(charge, energy);  // wrapper-side bookkeeping + guard
    inner_->draw(charge, energy);
  }

  sim::Time retry_hint() const override { return inner_->retry_hint(); }

  /// Open a fault window scaling the rail by `scale` (0 = dropout).
  void begin_fault(double scale);
  /// Close one window of exactly this scale; fires wake callbacks so
  /// parked gates re-arm against the recovered rail.
  void end_fault(double scale);

  bool fault_active() const { return !active_.empty(); }
  std::size_t active_faults() const { return active_.size(); }
  /// Windows ever opened on this rail.
  std::uint64_t faults_seen() const { return faults_seen_; }

  supply::Supply& inner() { return *inner_; }

 private:
  double scale() const {
    return active_.empty() ? 1.0
                           : *std::min_element(active_.begin(), active_.end());
  }

  supply::Supply* inner_;
  std::vector<double> active_;
  std::uint64_t faults_seen_ = 0;
};

}  // namespace emc::fault
