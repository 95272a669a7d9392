#include "sched/energy_token.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace emc::sched {

EnergyTokenPool::EnergyTokenPool(supply::StorageCap& store, double token_j,
                                 double reserve_v)
    : store_(&store), token_j_(token_j), reserve_v_(reserve_v) {
  assert(token_j_ > 0.0 && "token energy must be positive");
}

double EnergyTokenPool::outstanding_hold_j() const {
  if (held_ == 0) return 0.0;
  const double held_j = static_cast<double>(held_) * token_j_;
  const double drawn_since =
      store_->total_energy_drawn() - hold_drawn_baseline_j_;
  return drawn_since >= held_j ? 0.0 : held_j - drawn_since;
}

std::uint64_t EnergyTokenPool::available() const {
  const double reserve_j =
      0.5 * store_->capacitance() * reserve_v_ * reserve_v_;
  const double spendable =
      store_->stored_energy() - reserve_j - outstanding_hold_j();
  if (spendable <= 0.0) return 0;
  return static_cast<std::uint64_t>(spendable / token_j_);
}

bool EnergyTokenPool::try_acquire(std::uint64_t n) {
  if (available() < n) {
    ++rejections_;
    return false;
  }
  if (held_ == 0) hold_drawn_baseline_j_ = store_->total_energy_drawn();
  held_ += n;
  return true;
}

void EnergyTokenPool::release(std::uint64_t n) {
  n = std::min(n, held_);
  // The releasing task's physical draw is over; retire its share of the
  // drawn-since-baseline energy (up to its hold) so the remaining holds
  // keep their full outstanding weight.
  const double drawn_since =
      store_->total_energy_drawn() - hold_drawn_baseline_j_;
  hold_drawn_baseline_j_ +=
      std::min(std::max(drawn_since, 0.0), static_cast<double>(n) * token_j_);
  held_ -= n;
  if (held_ == 0) hold_drawn_baseline_j_ = 0.0;
}

}  // namespace emc::sched
