#include "sched/task.hpp"

namespace emc::sched {

std::vector<Task> TaskGenerator::poisson(sim::Time horizon) {
  std::vector<Task> out;
  double t_s = 0.0;
  const double horizon_s = sim::to_seconds(horizon);
  for (;;) {
    t_s += rng_->exponential_mean(mean_ia_s_);
    if (t_s >= horizon_s) break;
    Task task;
    task.id = next_id_++;
    task.work_ops = work_ops_;
    task.release = sim::from_seconds(t_s);
    task.deadline = rel_deadline_s_ > 0.0
                        ? sim::from_seconds(t_s + rel_deadline_s_)
                        : sim::kTimeMax;
    out.push_back(task);
  }
  return out;
}

}  // namespace emc::sched
