// Simulation time: 64-bit femtosecond ticks.
//
// Self-timed circuits simulated here span six decades of delay (a 90 nm
// inverter switches in ~40 ps at Vdd = 1 V but in tens of nanoseconds in
// sub-threshold), so the tick must be fine enough to resolve the fastest
// gate and the range must cover millisecond-scale harvester transients.
// Femtoseconds in a uint64_t give 1 fs resolution over ~5 hours of
// simulated time, which covers both ends comfortably.
#pragma once

#include <cstdint>

namespace emc::sim {

/// Simulation timestamp / duration in femtoseconds.
using Time = std::uint64_t;

inline constexpr Time kFemtosecond = 1;
inline constexpr Time kPicosecond = 1'000;
inline constexpr Time kNanosecond = 1'000'000;
inline constexpr Time kMicrosecond = 1'000'000'000;
inline constexpr Time kMillisecond = 1'000'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000'000;

/// Sentinel for "never" (no event pending, unbounded run).
inline constexpr Time kTimeMax = UINT64_MAX;

constexpr Time ns(std::uint64_t v) { return v * kNanosecond; }
constexpr Time us(std::uint64_t v) { return v * kMicrosecond; }
constexpr Time ms(std::uint64_t v) { return v * kMillisecond; }

/// Convert a duration in seconds (e.g. from an analogue model) to ticks,
/// rounding to the nearest femtosecond and saturating at kTimeMax.
inline Time from_seconds(double seconds) {
  if (seconds <= 0.0) return 0;
  const double ticks = seconds * 1e15;
  if (ticks >= static_cast<double>(kTimeMax)) return kTimeMax;
  // Round half away from zero. The truncation and the fraction are exact:
  // below 2^52 by construction, and from 2^52 on every double is whole.
  const Time whole = static_cast<Time>(ticks);
  return whole + (ticks - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

/// Convert ticks to seconds for analogue models and reporting.
constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-15; }

}  // namespace emc::sim
