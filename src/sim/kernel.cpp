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

RunVerdict Kernel::run_guarded(const Budget& budget) {
  const Time deadline = budget.horizon;
  const std::uint64_t max_events = budget.max_events;
  // Fused dispatch: one pop_due() call replaces the
  // empty()/next_time()/pop() triple per event, and consume() fires and
  // destroys the callback through a single dispatch, leaving the reused
  // local empty — the loop touches no allocator and pays two indirect
  // calls per event (move in, invoke+destroy out).
  Time t = 0;
  Action action;
  std::uint64_t n = 0;
  bool tripped = false;
  for (;;) {
    if (n >= max_events) {
      tripped = !queue_.empty() && queue_.next_time() <= deadline;
      break;
    }
    if (!queue_.pop_due(deadline, t, action)) break;
    now_ = t;
    ++executed_;
    ++n;
    action.consume();
  }
  // Advance the clock to the deadline even if no event lands exactly
  // there, so back-to-back runs observe monotonic time.
  if (deadline != kTimeMax && now_ < deadline && !tripped) now_ = deadline;

  RunVerdict v;
  v.events = n;
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
