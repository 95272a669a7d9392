// Priority queue of timed events with deterministic FIFO tie-breaking.
//
// Determinism matters for this project: speed-independent circuits are
// verified by asserting that *every* interleaving the simulator produces
// is hazard-free, and regression tests compare transition counts exactly.
// Events scheduled for the same tick therefore fire in scheduling order
// (a strictly increasing sequence number breaks ties), never in the
// unspecified order a plain binary heap would give.
//
// Storage layout is built for scenario sweeps that create and drain
// thousands of kernels: actions live in a slab of reusable slots (no
// per-event allocation once the slab is warm — see Action for the
// capture storage), and the priority structure holds small POD entries.
// Scheduling is schedule-and-forget: there are no handles and no
// cancellation. A callback that may outlive the object it captures
// checks a liveness token (see sram::SteppedAccess); a gate retracts a
// pending output by bumping its own generation.
//
// The priority structure is an implicit binary heap with hole-based
// sifting (Floyd's bottom-up delete): O(log n) schedule and pop.
// Dispatch is replace-top: pop_due() leaves the popped root in place as
// a vacated slot (the "hole") instead of removing it. Most fired events
// schedule their successor at once, and that schedule() writes its entry
// into the hole with one sift from the root, where a removal followed by
// a push would sift twice. Any other call that looks at the heap —
// pop_due(), next_time() — closes the hole first, so it is never
// observable and the pop order is the strict (t, seq) order either way.
// Peak queue depth is 57 on fig_survivability and 651 on fig3; at those
// sizes the heap beats bucketed calendar structures. Add a second
// structure only together with a figure whose workload needs it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace emc::sim {

class EventQueue {
 public:
  /// Schedule `action` at absolute time `t`. Takes the action by rvalue
  /// so the callable is moved exactly once — from the caller's temporary
  /// straight into its slab slot (each Action move is an indirect call;
  /// the hot path pays for only one). Lambdas convert implicitly; named
  /// Actions need std::move.
  void schedule(Time t, Action&& action);

  /// True if no event is pending.
  bool empty() const { return size() == 0; }

  /// Number of pending events (a pending hole is not one).
  std::size_t size() const { return heap_.size() - (hole_ ? 1 : 0); }

  /// Time of the earliest pending event; kTimeMax when empty.
  Time next_time() const;

  /// Fused dispatch step: if an event exists with time <= `deadline`,
  /// remove it, deliver its time and action, and return true. One call
  /// replaces an empty()/next_time()/pop triple on the kernel's hot
  /// loop.
  bool pop_due(Time deadline, Time& t, Action& action);

  /// Total events ever scheduled (Kernel::Stats::events_scheduled).
  std::uint64_t total_scheduled() const { return scheduled_; }

  // --- introspection (stats reporting and tests) ---

  /// High-water mark of pending events.
  std::size_t peak_live() const { return peak_live_; }

  /// Slots in the slab (pending + reusable).
  std::size_t slab_capacity() const { return slots_.size(); }

 private:
  // POD entry: cheap to move during sift; `slot` indexes the action.
  struct Entry {
    Time t;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    std::uint32_t slot;
  };

  /// a fires strictly after b (lower priority). Lexicographic (t, seq)
  /// composed into one 128-bit key: a single branchless compare instead
  /// of a data-dependent branch on the tie-break — timestamps collide
  /// constantly in gate simulations, making that branch a reliable
  /// mispredict inside the heap descent.
  static bool later(const Entry& a, const Entry& b) {
    const auto key = [](const Entry& e) {
      return (static_cast<unsigned __int128>(e.t) << 64) | e.seq;
    };
    return key(a) > key(b);
  }

  // Hole-based sift, Floyd's remove_root.
  void heap_push(const Entry& e);
  void heap_remove_root();
  // Puts `e` at the vacated root and sifts it down to its place.
  void heap_replace_root(const Entry& e);
  // Removes the root pop_due() left vacated, if any. Logically const:
  // the hole is never observable.
  void close_hole() const;

  mutable std::vector<Entry> heap_;
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_;  // reusable slot indices
  // True while heap_.front() is the entry of the last pop_due(): its
  // slot is released, and the next schedule() overwrites it.
  mutable bool hole_ = false;

  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace emc::sim
