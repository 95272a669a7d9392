// Span timing for the traced replica runs.
//
// The replicas wrap each call they make into a layer's public functions
// in a Span; the span adds its wall time to one Slot of the calling
// thread's tally. Tallies are per thread (sweep workers share no counter
// and take no lock per span) and are summed by totals() once the workers
// have joined.
// Counts ride in the same slots, added with Tracer::add.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds on the steady clock's epoch (CLOCK_MONOTONIC on Linux, the
/// clock Python's time.monotonic() reads, so stamps compare across
/// processes).
inline double monotonic_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Quantities accumulated on worker threads, summed over every call.
enum Slot : std::size_t {
  kDeviceSample,
  kDeviceSampleCalls,
  kDeviceWorstVth,
  kDeviceDelay,
  kSramCell,
  kExpRow,
  kExpBody,
  kExpBuild,
  kExpBuildCalls,
  kAsyncConstruct,
  kFaultElaborate,
  kExpTeardown,
  kSimRun,
  kSupplyDrawCount,
  kSupplyRejectedDraws,
  kSupplyEnergyDrawn,
  kGatesTransitions,
  kGatesMeterEnergy,
  kGatesStallEntries,
  kFaultFaultsSeen,
  kSlotCount
};

/// Metric name of each slot, in Slot order.
extern const std::array<const char*, kSlotCount> kSlotNames;

class Tracer {
 public:
  /// Add `v` to `slot` of the calling thread's tally.
  static void add(Slot slot, double v);
  /// Sum over every thread's tally. Call only after the threads that
  /// added have been joined.
  static std::array<double, kSlotCount> totals();
};

/// Adds the wall time of its scope to one slot.
class Span {
 public:
  explicit Span(Slot slot) : slot_(slot), t0_(Clock::now()) {}
  ~Span() { Tracer::add(slot_, seconds_since(t0_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Slot slot_;
  Clock::time_point t0_;
};

}  // namespace perfbench
