// Deterministic fault injection: FaultPlan.
//
// A FaultPlan is a copyable *description* of an environment's fault
// processes — supply brownout/dropout windows, harvester blackouts and
// handshake stalls — that elaborate() turns into plain scheduled events
// on a Kernel. Nothing about the injection lives in the kernel loop: a
// faulted simulation is an ordinary simulation whose event set happens
// to include fault begin/end callbacks.
//
// Determinism contract: every stochastic draw is keyed through the
// counter-based Rng — windows from Rng::keyed(seed, 2 * stream),
// per-window target picks from Rng::keyed(seed, 2 * stream + 1), where
// `stream` is the spec's insertion ordinal. A spec's schedule is
// therefore pure in (seed, stream): independent of elaboration order and
// of the sweep thread count. Building the same plan twice, or elaborating one plan
// onto two kernels (the "same environment, two circuits" idiom), yields
// byte-identical fault schedules.
//
// Windows within one spec are sequential (non-overlapping); overlap
// across specs is legal and resolved by the target (FaultableSupply
// takes the min scale, Harvester counts blackout depth).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace emc::async {
class HandshakeSink;
}
namespace emc::supply {
class Harvester;
}

namespace emc::fault {

class FaultableSupply;

enum class FaultKind : std::uint8_t {
  kSupplyBrownout,    ///< rail scaled by `scale` for the window (0 = dropout)
  kHarvesterBlackout, ///< harvester output gated to zero for the window
  kHandshakeStall,    ///< one sink stops acking for the window
};

/// One fault window [start, start + duration). A window whose end
/// falls beyond the time axis is permanent: no end event is scheduled.
struct Window {
  sim::Time start = 0;
  sim::Time duration = 0;
};

/// One fault process: a kind, its stochastic window parameters, and the
/// brownout payload.
struct FaultSpec {
  FaultKind kind = FaultKind::kSupplyBrownout;
  std::uint64_t stream = 0;  ///< RNG stream id (= insertion ordinal)

  // Stochastic generation over [0, horizon): exponential inter-arrival
  // at `rate_hz` mean arrivals per simulated second, exponential
  // durations of mean `mean_duration_s`.
  double rate_hz = 0.0;
  double mean_duration_s = 0.0;

  double scale = 0.0;  ///< kSupplyBrownout: residual rail fraction
};

/// What elaborate() scheduled (per plan; zero-target specs elaborate to
/// nothing and count nothing).
struct FaultReport {
  std::uint64_t scheduled_events = 0;  ///< begin + end events
  std::uint64_t windows = 0;           ///< windowed faults placed
};

class FaultPlan {
 public:
  /// Draws are keyed by `seed`; stochastic windows are generated over
  /// [0, horizon).
  FaultPlan(std::uint64_t seed, sim::Time horizon)
      : seed_(seed), horizon_(horizon) {}

  // --- spec builders (chainable; each call appends one spec/stream) ---

  /// Supply brownouts: rail scaled to `residual_scale` of nominal.
  FaultPlan& brownouts(double rate_hz, double mean_duration_s,
                       double residual_scale);
  /// Supply dropouts — brownouts to zero.
  FaultPlan& dropouts(double rate_hz, double mean_duration_s) {
    return brownouts(rate_hz, mean_duration_s, 0.0);
  }

  FaultPlan& harvester_blackouts(double rate_hz, double mean_duration_s);
  FaultPlan& handshake_stalls(double rate_hz, double mean_duration_s);

  const std::vector<FaultSpec>& specs() const { return specs_; }

  /// The windows a spec elaborates to: the keyed stochastic draw. Pure
  /// in (seed(), spec.stream): repeated
  /// calls, other specs, other plans with the same seed and ordinal all
  /// agree. Exposed for tests and for "same environment on two kernels".
  std::vector<Window> windows_for(const FaultSpec& spec) const;

  /// The injection surface a plan binds to. Any field may be left empty:
  /// specs without a matching target elaborate to nothing. Target
  /// *order* is part of the schedule (sink picks are drawn as
  /// indices), so build `sinks` in a deterministic order.
  struct Targets {
    FaultableSupply* supply = nullptr;
    supply::Harvester* harvester = nullptr;
    std::vector<async::HandshakeSink*> sinks;
  };

  /// Schedule every spec's windows onto `kernel` against `targets`.
  /// Idempotent in description (const); callable multiple times / onto
  /// multiple kernels for lock-step comparisons.
  FaultReport elaborate(sim::Kernel& kernel, const Targets& targets) const;

 private:
  FaultSpec& push(FaultKind kind);

  std::uint64_t seed_;
  sim::Time horizon_;
  std::vector<FaultSpec> specs_;
};

}  // namespace emc::fault
