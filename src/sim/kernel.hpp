// Discrete-event simulation kernel (SystemC-flavoured, single-threaded).
//
// The kernel advances a femtosecond clock through an event queue. Gates,
// supplies and controllers are ordinary objects that schedule callbacks;
// there is no coroutine machinery — self-timed circuits are naturally
// event-driven, and plain callbacks keep a 100k-event/ms simulation cheap.
//
// One Kernel is one scenario: kernels are cheap to instantiate by the
// thousands (slab-backed queue, no global state) and independent kernels
// never share mutable state, so a sweep may run one per thread. A single
// Kernel instance is NOT thread-safe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace emc::sim {

/// What a quiescence probe reports when the event queue drains (see
/// Kernel::run_guarded). Probes are how protocol-level liveness is made
/// visible to the kernel: the queue being empty is indistinguishable
/// from deadlock without them.
enum class ProbeState : std::uint8_t {
  kIdle,     ///< nothing in progress — draining here is completion
  kStalled,  ///< power-starved; would resume if energy arrived
  kBusy,     ///< mid-protocol with no pending event — a lost handshake
};

/// Structured outcome of a guarded run (never hangs, never aborts).
enum class RunStatus : std::uint8_t {
  kCompleted,        ///< horizon reached, or drained with all probes idle
  kQuiesced,         ///< drained while power-starved (stalled probes)
  kDeadlocked,       ///< drained mid-protocol (busy, nothing stalled)
  kBudgetExhausted,  ///< event budget tripped before the horizon
};

const char* to_string(RunStatus s);

/// Limits for one run_guarded() call. The default event budget is the
/// runaway stop: an oscillator never drains the queue.
struct Budget {
  Time horizon = kTimeMax;                  ///< absolute sim-time deadline
  std::uint64_t max_events = 500'000'000;   ///< events THIS call may execute
};

/// run_guarded()'s verdict: what stopped the run and the probe census at
/// the stop point.
struct RunVerdict {
  RunStatus status = RunStatus::kCompleted;
  std::uint64_t events = 0;        ///< events executed by this call
  Time end_time = 0;               ///< kernel time when the run stopped
  std::size_t stalled_probes = 0;  ///< probes reporting kStalled
  std::size_t busy_probes = 0;     ///< probes reporting kBusy
  bool ok() const { return status == RunStatus::kCompleted; }
};

class Kernel {
 public:
  /// Execution snapshot for sweep throughput reporting.
  struct Stats {
    std::uint64_t events_executed = 0;
    std::uint64_t events_scheduled = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t slab_capacity = 0;

    /// Aggregation over independent kernels (sweep reporting). Counters
    /// sum. The two sizes deliberately differ:
    ///  * peak_queue_depth takes the MAX — kernels run one-at-a-time per
    ///    worker, so the depth any single scenario reached is the figure
    ///    that bounds per-kernel memory; summing would overstate it.
    ///  * slab_capacity SUMS — each kernel owns its slab, so the total is
    ///    the aggregate slot footprint the sweep allocated across all
    ///    scenarios.
    /// Semantics are pinned by sim_test.cpp (StatsAggregationSemantics).
    Stats& operator+=(const Stats& o) {
      events_executed += o.events_executed;
      events_scheduled += o.events_scheduled;
      if (o.peak_queue_depth > peak_queue_depth) {
        peak_queue_depth = o.peak_queue_depth;
      }
      slab_capacity += o.slab_capacity;
      return *this;
    }
  };

  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedule `action` after `delay` ticks (0 = later this tick, after all
  /// currently-executing callbacks return).
  void schedule(Time delay, Action action) {
    queue_.schedule(saturating_add(now_, delay), std::move(action));
  }

  /// Schedule at an absolute timestamp. `t` in the past fires immediately
  /// at the current time (clamped), preserving event ordering.
  void schedule_at(Time t, Action action) {
    queue_.schedule(t < now_ ? now_ : t, std::move(action));
  }

  /// Run one event. Returns false if the queue was empty. For drivers
  /// that act between single events (sched::EnergyPetriNet::run).
  bool step();

  /// Run until the queue drains or `deadline` is passed (kTimeMax: until
  /// it drains or the default event budget runs out). Events at exactly
  /// `deadline` are executed. Returns the number of events executed.
  std::uint64_t run_until(Time deadline) {
    return run_guarded(Budget{deadline}).events;
  }

  /// A quiescence probe: called (only) when a run stops, to classify an
  /// empty queue. Register one per protocol actor or per
  /// stall-capable subsystem (e.g. "is any gate parked?", "is the
  /// handshake source mid-cycle?"). Probes live as long as the kernel.
  using QuiescenceProbe = std::function<ProbeState()>;
  void add_probe(QuiescenceProbe probe) { probes_.push_back(std::move(probe)); }

  /// Watchdog run: executes events up to budget.horizon, bounded by a
  /// per-call event budget, and classifies the stop. Reaching the horizon
  /// is kCompleted (the horizon is the experiment's intent; pending
  /// events at the deadline are normal for oscillators and harvesters).
  /// Exhausting the event budget first is kBudgetExhausted — the
  /// runaway/livelock tripwire. Draining the queue early consults the
  /// registered probes: any kBusy with nothing kStalled is kDeadlocked
  /// (mid-protocol, no event will ever arrive), any kStalled is
  /// kQuiesced (power-starved; energy could resume it), all-idle is
  /// kCompleted. Note that perpetual background activity (harvester
  /// ticks, free-running oscillators) keeps the queue non-empty, masking
  /// a wedged protocol from drain detection — the budgets are the
  /// backstop there, and completion counters tell the real story.
  RunVerdict run_guarded(const Budget& budget = Budget{});

  /// True if no event is pending.
  bool idle() const { return queue_.empty(); }

  /// Time of the next pending event (kTimeMax if none).
  Time next_event_time() const { return queue_.next_time(); }

  /// Snapshot of execution statistics since construction.
  Stats stats() const {
    Stats s;
    s.events_executed = executed_;
    s.events_scheduled = queue_.total_scheduled();
    s.peak_queue_depth = queue_.peak_live();
    s.slab_capacity = queue_.slab_capacity();
    return s;
  }

 private:
  static Time saturating_add(Time a, Time b) {
    const Time s = a + b;
    return s < a ? kTimeMax : s;
  }

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<QuiescenceProbe> probes_;
};

}  // namespace emc::sim
