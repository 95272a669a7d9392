#include "sim/kernel.hpp"

namespace emc::sim {

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kQuiesced:
      return "quiesced";
    case RunStatus::kDeadlocked:
      return "deadlocked";
    case RunStatus::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "?";
}

bool Kernel::step() {
  Time t = 0;
  Action action;
  if (!queue_.pop_due(kTimeMax, t, action)) return false;
  now_ = t;
  ++executed_;
  action.consume();
  return true;
}

std::uint64_t Kernel::run_until(Time deadline) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  cap_hit_ = false;
  // Fused dispatch: one pop_due() call replaces the
  // empty()/next_time()/pop() triple per event, and consume() fires and
  // destroys the callback through a single dispatch, leaving the reused
  // local empty — the loop touches no allocator and pays two indirect
  // calls per event (move in, invoke+destroy out).
  Time t = 0;
  Action action;
  for (;;) {
    if (executed_ >= event_cap_) {
      if (!queue_.empty() && queue_.next_time() <= deadline) cap_hit_ = true;
      break;
    }
    if (!queue_.pop_due(deadline, t, action)) break;
    now_ = t;
    ++executed_;
    ++n;
    action.consume();
  }
  // Advance the clock to the deadline even if no event lands exactly
  // there, so back-to-back run_until calls observe monotonic time.
  if (deadline != kTimeMax && now_ < deadline && !cap_hit_) now_ = deadline;
  wall_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return n;
}

RunVerdict Kernel::run_guarded(const Budget& budget) {
  RunVerdict v;
  const std::uint64_t start = executed_;
  // Express the per-call budget through the absolute event cap run_until
  // already enforces, restoring the caller's cap afterwards.
  const std::uint64_t saved_cap = event_cap_;
  const std::uint64_t budget_cap =
      executed_ > UINT64_MAX - budget.max_events
          ? UINT64_MAX
          : executed_ + budget.max_events;
  event_cap_ = saved_cap < budget_cap ? saved_cap : budget_cap;
  run_until(budget.horizon);
  const bool tripped = cap_hit_;
  event_cap_ = saved_cap;
  cap_hit_ = false;

  v.events = executed_ - start;
  v.end_time = now_;
  for (const QuiescenceProbe& probe : probes_) {
    switch (probe()) {
      case ProbeState::kStalled:
        ++v.stalled_probes;
        break;
      case ProbeState::kBusy:
        ++v.busy_probes;
        break;
      case ProbeState::kIdle:
        break;
    }
  }
  if (tripped) {
    v.status = RunStatus::kBudgetExhausted;
  } else if (!queue_.empty()) {
    v.status = RunStatus::kCompleted;  // horizon reached mid-activity
  } else if (v.busy_probes > 0 && v.stalled_probes == 0) {
    v.status = RunStatus::kDeadlocked;
  } else if (v.stalled_probes > 0) {
    v.status = RunStatus::kQuiesced;
  } else {
    v.status = RunStatus::kCompleted;
  }
  return v;
}

}  // namespace emc::sim
