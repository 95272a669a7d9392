// Energy-modulated task scheduling (§II.B strategy 2, [11]).
//
// A Processor executes tasks at a rate proportional to the supply's
// drive capability (work integrates stepwise, so a task slows down and
// speeds up with the rail, and parks through brown-outs). Schedulers
// differ only in their admission policy:
//
//   * FixedRate   — admits on release, blind to energy (the traditional
//                   design; causes brown-outs on a harvester),
//   * EnergyToken — admits only with an energy-token hold and modulates
//                   its concurrency with the adaptive controller's level
//                   (the paper's dynamic scheduler, Fig. 3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "device/delay_model.hpp"
#include "sched/energy_token.hpp"
#include "sched/task.hpp"
#include "sim/kernel.hpp"
#include "supply/storage_cap.hpp"

namespace emc::sched {

struct SchedStats {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t aborted_brownout = 0;
  std::uint64_t rejected = 0;
  double useful_energy_j = 0.0;   ///< energy of completed tasks
  double wasted_energy_j = 0.0;   ///< energy of aborted tasks
  double total_latency_s = 0.0;   ///< completion - release, summed
};

/// One execution engine: integrates task work against the live voltage.
class Processor {
 public:
  Processor(sim::Kernel& kernel, const device::DelayModel& model,
            supply::StorageCap& store, double ops_per_s_at_1v = 2.0e6);

  /// Execute `task`; `cb(completed_ok)` on finish/abort. Aborts when the
  /// store collapses below the retention floor mid-task.
  void execute(const Task& task, std::function<void(bool)> cb);

  bool busy() const { return busy_; }
  double ops_per_s(double vdd) const;

 private:
  void slice();

  sim::Kernel* kernel_;
  const device::DelayModel* model_;
  supply::StorageCap* store_;
  double ops_per_s_1v_;
  bool busy_ = false;
  Task current_;
  double remaining_ops_ = 0.0;
  std::function<void(bool)> cb_;
  std::shared_ptr<bool> alive_;
};

class SchedulerBase {
 public:
  SchedulerBase(sim::Kernel& kernel, const device::DelayModel& model,
                supply::StorageCap& store, std::size_t processors);
  virtual ~SchedulerBase() = default;

  const SchedStats& stats() const { return stats_; }

  /// Feed a pre-generated arrival trace; scheduling then runs on kernel
  /// events.
  void load(std::vector<Task> tasks);

  /// Concurrency knob (wired to the AdaptiveController): maximum
  /// simultaneously running tasks.
  void set_max_concurrency(std::size_t n) { max_concurrency_ = n; }

 protected:
  /// Policy hook: may `task` start now? (Called with a free processor.)
  virtual bool admit(const Task& task) = 0;
  /// Policy hook: admission bookkeeping after completion/abort.
  virtual void on_finish(const Task& task, bool ok) { (void)task; (void)ok; }

  void on_release(Task task);
  void pump();

  sim::Kernel* kernel_;
  const device::DelayModel* model_;
  supply::StorageCap* store_;
  std::vector<std::unique_ptr<Processor>> procs_;
  std::deque<Task> ready_;
  std::size_t running_ = 0;
  std::size_t max_concurrency_;
  SchedStats stats_;
};

class FixedRateScheduler final : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

 protected:
  bool admit(const Task&) override { return true; }
};

class EnergyTokenScheduler final : public SchedulerBase {
 public:
  EnergyTokenScheduler(sim::Kernel& kernel, const device::DelayModel& model,
                       supply::StorageCap& store, std::size_t processors,
                       EnergyTokenPool& pool);

 protected:
  bool admit(const Task& task) override;
  void on_finish(const Task& task, bool ok) override;

 private:
  std::uint64_t price_of(const Task& task) const;

  EnergyTokenPool* pool_;
  /// Holds outstanding per task (the price at admission time, which can
  /// differ from a price recomputed at completion).
  std::unordered_map<std::uint64_t, std::uint64_t> holds_;
};

}  // namespace emc::sched
