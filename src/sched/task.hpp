// Task model for energy-modulated scheduling ([11], [15]).
//
// A task is a quantum of useful work with an energy price and (optional)
// deadline. Execution speed is *not* a task property: the processor runs
// at whatever rate the supply voltage permits, so the same task takes
// longer — but costs roughly the same charge — under a depleted store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace emc::sched {

struct Task {
  std::uint64_t id = 0;
  /// Work amount in "reference operations" (one ref-op = one 16-bit SRAM
  /// write + bookkeeping logic at the chosen design point).
  double work_ops = 100.0;
  /// Energy per ref-op at Vdd = 1 V [J]; scales as V^2 at run time.
  double energy_per_op_j = 6e-12;
  /// Absolute deadline (kTimeMax = none).
  sim::Time deadline = sim::kTimeMax;
  /// Release time.
  sim::Time release = 0;
  /// Relative importance for value-based policies.
  double value = 1.0;

  double energy_at(double vdd) const {
    return work_ops * energy_per_op_j * vdd * vdd;
  }
};

/// Poisson task source for the scheduling benches.
class TaskGenerator {
 public:
  TaskGenerator(double mean_interarrival_s, double work_ops,
                double relative_deadline_s, sim::Rng& rng)
      : mean_ia_s_(mean_interarrival_s),
        work_ops_(work_ops),
        rel_deadline_s_(relative_deadline_s),
        rng_(&rng) {}

  /// Produce arrivals over [0, horizon).
  std::vector<Task> poisson(sim::Time horizon);

 private:
  double mean_ia_s_;
  double work_ops_;
  double rel_deadline_s_;
  sim::Rng* rng_;
  std::uint64_t next_id_ = 1;
};

}  // namespace emc::sched
