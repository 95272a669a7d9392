#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace emc::sched {

// ---------------------------------------------------------------------------
// Processor
// ---------------------------------------------------------------------------

Processor::Processor(sim::Kernel& kernel, const device::DelayModel& model,
                     supply::StorageCap& store, double ops_per_s_at_1v)
    : kernel_(&kernel),
      model_(&model),
      store_(&store),
      ops_per_s_1v_(ops_per_s_at_1v),
      alive_(std::make_shared<bool>(true)) {}

double Processor::ops_per_s(double vdd) const {
  if (!model_->operational(vdd)) return 0.0;
  // Rate scales with inverter speed (self-timed datapath).
  return ops_per_s_1v_ * model_->inverter_delay_seconds(1.0) /
         model_->inverter_delay_seconds(vdd);
}

void Processor::execute(const Task& task, std::function<void(bool)> cb) {
  busy_ = true;
  current_ = task;
  remaining_ops_ = task.work_ops;
  cb_ = std::move(cb);
  slice();
}

void Processor::slice() {
  const double vdd = store_->voltage();
  if (vdd < 0.05) {
    // Store collapsed completely: the in-flight task's state is gone.
    busy_ = false;
    auto cb = std::move(cb_);
    cb_ = nullptr;
    if (cb) cb(false);
    return;
  }
  if (!model_->operational(vdd)) {
    // Stall and wait for the harvester to refill the store.
    const sim::Time hint = store_->retry_hint();
    auto resume = [this, weak = std::weak_ptr<bool>(alive_)] {
      if (auto t = weak.lock(); t && *t && busy_) slice();
    };
    if (hint != sim::kTimeMax) {
      kernel_->schedule(hint, resume);
    } else {
      store_->on_wake(resume);
    }
    return;
  }
  if (remaining_ops_ <= 0.0) {
    busy_ = false;
    auto cb = std::move(cb_);
    cb_ = nullptr;
    if (cb) cb(true);
    return;
  }
  // Execute a slice of up to ~1/16 of the task at the current voltage,
  // drawing its energy from the store.
  const double slice_ops = std::min(remaining_ops_, current_.work_ops / 16.0);
  const double rate = ops_per_s(vdd);
  const double dt_s = slice_ops / rate;
  const double e = slice_ops * current_.energy_per_op_j * vdd * vdd;
  store_->draw(e / vdd, e);
  remaining_ops_ -= slice_ops;
  kernel_->schedule(sim::from_seconds(dt_s),
                    [this, weak = std::weak_ptr<bool>(alive_)] {
                      if (auto t = weak.lock(); t && *t && busy_) slice();
                    });
}

// ---------------------------------------------------------------------------
// SchedulerBase
// ---------------------------------------------------------------------------

SchedulerBase::SchedulerBase(sim::Kernel& kernel,
                             const device::DelayModel& model,
                             supply::StorageCap& store,
                             std::size_t processors)
    : kernel_(&kernel),
      model_(&model),
      store_(&store),
      max_concurrency_(processors) {
  for (std::size_t i = 0; i < processors; ++i) {
    procs_.push_back(std::make_unique<Processor>(kernel, model, store));
  }
}

void SchedulerBase::load(std::vector<Task> tasks) {
  for (auto& t : tasks) {
    kernel_->schedule_at(t.release, [this, t] { on_release(t); });
  }
}

void SchedulerBase::on_release(Task task) {
  ++stats_.released;
  ready_.push_back(std::move(task));
  pump();
}

void SchedulerBase::pump() {
  // Admit as many ready tasks as policy and concurrency allow.
  for (;;) {
    if (ready_.empty() || running_ >= max_concurrency_) return;
    Processor* free_proc = nullptr;
    for (auto& p : procs_) {
      if (!p->busy()) {
        free_proc = p.get();
        break;
      }
    }
    if (free_proc == nullptr) return;
    Task task = ready_.front();
    if (!admit(task)) {
      // Policy refused: retry when conditions change (poll at a coarse
      // control period; event-precise re-admission is the adaptive
      // controller's job).
      kernel_->schedule(sim::us(100), [this] { pump(); });
      return;
    }
    ready_.pop_front();
    ++running_;
    free_proc->execute(task, [this, task](bool ok) {
      --running_;
      const double e = task.energy_at(store_->voltage() > 0.2
                                          ? store_->voltage()
                                          : 0.5);
      if (ok) {
        ++stats_.completed;
        stats_.useful_energy_j += e;
        const sim::Time now = kernel_->now();
        stats_.total_latency_s += sim::to_seconds(now - task.release);
        if (now > task.deadline) ++stats_.deadline_misses;
      } else {
        ++stats_.aborted_brownout;
        stats_.wasted_energy_j += e;
      }
      on_finish(task, ok);
      pump();
    });
  }
}

// ---------------------------------------------------------------------------
// EnergyTokenScheduler
// ---------------------------------------------------------------------------

EnergyTokenScheduler::EnergyTokenScheduler(sim::Kernel& kernel,
                                           const device::DelayModel& model,
                                           supply::StorageCap& store,
                                           std::size_t processors,
                                           EnergyTokenPool& pool)
    : SchedulerBase(kernel, model, store, processors),
      pool_(&pool) {}

std::uint64_t EnergyTokenScheduler::price_of(const Task& task) const {
  // Conservative price at the store's present voltage, rounded up.
  const double v = std::max(store_->voltage(), 0.3);
  return static_cast<std::uint64_t>(
             std::ceil(task.energy_at(v) / pool_->token_j())) +
         1;
}

bool EnergyTokenScheduler::admit(const Task& task) {
  const std::uint64_t price = price_of(task);
  if (!pool_->try_acquire(price)) return false;
  holds_[task.id] = price;
  return true;
}

void EnergyTokenScheduler::on_finish(const Task& task, bool ok) {
  (void)ok;
  auto it = holds_.find(task.id);
  if (it != holds_.end()) {
    pool_->release(it->second);
    holds_.erase(it);
  }
}

}  // namespace emc::sched
