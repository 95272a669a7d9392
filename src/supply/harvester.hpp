// Stochastic energy-harvester source.
//
// Substitution for the vibration micro-generator of the Holistic project:
// a Markov-modulated power process. The harvester sits in one of a small
// set of states (DEAD / WEAK / NORMAL / BURST), each with a mean output
// power; state dwell times are exponential. Every `tick` it deposits
// P * tick joules (scaled by the MPPT tracking efficiency) into a
// StorageCap. This reproduces the supply property the paper designs for:
// power levels that are "small and variable" within a specified range.
#pragma once

#include <array>
#include <cstdint>

#include "sim/random.hpp"
#include "supply/storage_cap.hpp"

namespace emc::supply {

enum class HarvestState : std::uint8_t { kDead = 0, kWeak, kNormal, kBurst };

struct HarvesterProfile {
  /// Mean output power per state [W].
  std::array<double, 4> power_w{0.0, 50e-6, 200e-6, 800e-6};
  /// Mean dwell time per state [s].
  std::array<double, 4> dwell_s{2e-3, 5e-3, 10e-3, 1e-3};
  /// Row-stochastic transition matrix (excluding self-transitions:
  /// probabilities of jumping to each state when leaving).
  std::array<std::array<double, 4>, 4> jump{{
      {0.0, 0.7, 0.3, 0.0},   // from DEAD
      {0.3, 0.0, 0.6, 0.1},   // from WEAK
      {0.1, 0.3, 0.0, 0.6},   // from NORMAL
      {0.0, 0.2, 0.8, 0.0},   // from BURST
  }};
  /// Multiplicative per-tick jitter (log-uniform half-width, 0 = none).
  double jitter = 0.25;

  /// Bursty vibration profile averaging ~200 uW — the regime of the
  /// paper's holistic examples.
  static HarvesterProfile vibration_200uw();
};

class Harvester {
 public:
  /// Deposits into `store` every `tick` once start() is called.
  Harvester(sim::Kernel& kernel, HarvesterProfile profile, StorageCap& store,
            sim::Rng& rng, sim::Time tick = sim::us(10));

  void start();

  /// Conversion efficiency applied to every deposit (MPPT controllers
  /// adjust this at run time).
  void set_efficiency(double eta) { efficiency_ = eta; }

  double instantaneous_power() const;
  double total_energy_harvested() const { return harvested_j_; }

  /// Fault hook (emc::fault): a blackout gates the harvester's output to
  /// zero without disturbing the Markov environment process — the
  /// ambient energy is still there, the front-end just cannot convert
  /// it, so the RNG stream (and every non-faulted draw after recovery)
  /// is identical to the fault-free run. Begin/end calls nest (overlap
  /// from independent fault streams is counted, not clobbered).
  void begin_blackout() { ++blackout_depth_; }
  void end_blackout() {
    if (blackout_depth_ > 0) --blackout_depth_;
  }
  bool blacked_out() const { return blackout_depth_ > 0; }

 private:
  void step();
  void maybe_transition();

  sim::Kernel* kernel_;
  HarvesterProfile profile_;
  StorageCap* store_;
  sim::Rng* rng_;
  sim::Time tick_;
  HarvestState state_ = HarvestState::kNormal;
  sim::Time state_until_ = 0;
  double efficiency_ = 1.0;
  double harvested_j_ = 0.0;
  double jitter_factor_ = 1.0;
  std::uint32_t blackout_depth_ = 0;
  bool running_ = false;  // set by start(); a second start() is a no-op
};

}  // namespace emc::supply
