// Process-variation descriptors for Monte-Carlo replication.
//
// The paper's graceful-degradation claim is a *statistical* one: under
// process variation, delay and energy spread per instance, and what
// survives at a given Vdd is a yield, not a binary. A Variation is the
// copyable description of that spread — a global corner shift (every
// device on the die moves together) plus local per-instance sigmas for
// threshold voltage and drive strength (each device gets its own draw).
//
// Samples come from a counter-based deterministic stream: DeviceSample
// for instance `i` of trial `t` is a pure function of (trial_seed, i)
// via sim::Rng::keyed — NOT a draw from a shared sequential generator.
// Two elaborations that build the same instances in a different order
// therefore produce identical samples, which is what makes replicated
// sweeps byte-identical at any thread count and robust against circuit
// refactoring (the MC determinism contract, tests/mc_test.cpp).
//
// Both sampled quantities factor *out* of the memoized EKV kernel
// (DelayTable stores g(x) in x = Vdd - Vth; strength is a prefactor), so
// every sampled device still shares the one process-wide table — the
// per-gate multiplier path adds no per-instance tables and no accuracy
// loss.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/random.hpp"

namespace emc::device {

/// One device's Monte-Carlo draw: a threshold shift [V] (including the
/// global corner) and a multiplicative drive-strength factor (including
/// the corner's drive factor; 1.0 = nominal minimum device).
struct DeviceSample {
  double vth_offset = 0.0;
  double strength = 1.0;
};

struct Variation {
  /// Global (die-wide) corner: added to every instance's Vth [V].
  double corner_vth_shift = 0.0;
  /// Global drive-strength corner factor (process speed corner).
  double corner_drive = 1.0;
  /// Local per-instance Vth mismatch sigma [V] (Pelgrom-style random
  /// dopant fluctuation; 0 = no local Vth variation).
  double vth_sigma = 0.0;
  /// Local per-instance drive-strength sigma (relative, around 1.0).
  double strength_sigma = 0.0;

  bool has_local() const { return vth_sigma > 0.0 || strength_sigma > 0.0; }

  /// Local mismatch only (the common MC study): `vth_sigma_v` of
  /// threshold spread, optionally relative strength spread.
  static Variation local(double vth_sigma_v, double strength_sigma = 0.0) {
    Variation v;
    v.vth_sigma = vth_sigma_v;
    v.strength_sigma = strength_sigma;
    return v;
  }

  // --- worst-case corner queries (static margin analysis, emc::sta) ---
  //
  // The spread is read as a symmetric box around nominal: threshold
  // within +/-(|corner shift| + k local sigmas), strength within
  // 1 -/+ (|1 - corner drive| + k local sigmas). The static timing pass
  // races the slowest plausible datapath device against the fastest
  // plausible delay-line device — the adversarial pairing Monte-Carlo
  // sampling only finds with luck.

  /// The slowest device the box admits (highest Vth, weakest drive).
  DeviceSample worst_slow(double k = 3.0) const {
    const double dv = std::abs(corner_vth_shift) + k * vth_sigma;
    const double ds = std::abs(1.0 - corner_drive) + k * strength_sigma;
    return DeviceSample{dv, std::max(0.05, 1.0 - ds)};
  }

  /// The fastest device the box admits (lowest Vth, strongest drive).
  DeviceSample worst_fast(double k = 3.0) const {
    const double dv = std::abs(corner_vth_shift) + k * vth_sigma;
    const double ds = std::abs(1.0 - corner_drive) + k * strength_sigma;
    return DeviceSample{-dv, 1.0 + ds};
  }
};

/// Draws DeviceSamples for one trial. Stateless between calls: sample(i)
/// opens a fresh keyed stream per instance, so call order never matters.
class VariationSampler {
 public:
  VariationSampler(const Variation& variation, std::uint64_t trial_seed)
      : variation_(variation), trial_seed_(trial_seed) {}

  /// The draw for device instance `instance_id`: pure in
  /// (trial_seed, instance_id). Strength is clamped to a positive floor
  /// so a deep negative tail cannot produce a non-physical device.
  DeviceSample sample(std::uint64_t instance_id) const;

  /// Slowest (most positive) Vth offset over `count` consecutive
  /// instances starting at `first_id` — the worst cell of an SRAM word
  /// or section, whose development time gates the read.
  double worst_vth(std::uint64_t first_id, std::size_t count) const;

 private:
  Variation variation_;
  std::uint64_t trial_seed_ = 0;
};

}  // namespace emc::device
