#include "supply/harvester.hpp"

#include <cmath>

namespace emc::supply {

HarvesterProfile HarvesterProfile::vibration_200uw() {
  return HarvesterProfile{};
}

Harvester::Harvester(sim::Kernel& kernel, HarvesterProfile profile,
                     StorageCap& store, sim::Rng& rng, sim::Time tick)
    : kernel_(&kernel),
      profile_(profile),
      store_(&store),
      rng_(&rng),
      tick_(tick) {}

void Harvester::start() {
  if (running_) return;
  running_ = true;
  state_until_ = kernel_->now();
  maybe_transition();
  kernel_->schedule(tick_, [this] { step(); });
}

double Harvester::instantaneous_power() const {
  if (blackout_depth_ > 0) return 0.0;
  return profile_.power_w[static_cast<std::size_t>(state_)] * jitter_factor_;
}

void Harvester::maybe_transition() {
  while (kernel_->now() >= state_until_) {
    const auto i = static_cast<std::size_t>(state_);
    // Draw the next dwell; on expiry jump according to the matrix row.
    const double dwell = rng_->exponential_mean(profile_.dwell_s[i]);
    state_until_ = kernel_->now() + sim::from_seconds(dwell);
    const double u = rng_->uniform();
    double acc = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      acc += profile_.jump[i][j];
      if (u < acc) {
        state_ = static_cast<HarvestState>(j);
        break;
      }
    }
  }
  if (profile_.jitter > 0.0) {
    jitter_factor_ = 1.0 + rng_->uniform(-profile_.jitter, profile_.jitter);
  }
}

void Harvester::step() {
  maybe_transition();
  const double p = instantaneous_power();
  const double joules = p * sim::to_seconds(tick_) * efficiency_;
  // `> 0` rejects NaN from a poisoned profile; isfinite rejects +inf —
  // neither may reach the store or the harvest bookkeeping.
  if (joules > 0.0 && std::isfinite(joules)) {
    store_->deposit_energy(joules);
    harvested_j_ += joules;
  }
  kernel_->schedule(tick_, [this] { step(); });
}

}  // namespace emc::supply
