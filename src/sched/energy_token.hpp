// Energy tokens ([15]: "Task scheduling based on energy token model").
//
// Energy is quantized into tokens; a task may only start when the pool
// holds its price, making the energy constraint explicit in the
// scheduler instead of discovered via brown-out. The pool mirrors a
// storage capacitor: tokens above a reserve voltage are spendable, the
// reserve keeps the logic alive through the dip an admitted task causes.
#pragma once

#include <cstdint>

#include "supply/storage_cap.hpp"

namespace emc::sched {

class EnergyTokenPool {
 public:
  /// `token_j` — energy per token (must be positive); `reserve_v` —
  /// store voltage below which no tokens are issued (kept for the
  /// control logic itself).
  EnergyTokenPool(supply::StorageCap& store, double token_j,
                  double reserve_v);

  /// Tokens currently spendable: the store's live energy above the
  /// reserve, minus the *outstanding* part of the holds. A hold is a
  /// promise of future draw; once the running task has physically drawn
  /// (part of) its energy through the store, that part has already left
  /// stored_energy() and must not be subtracted a second time — the pool
  /// nets draws made while holds are outstanding against the held
  /// amount (see outstanding_hold_j()).
  std::uint64_t available() const;

  /// Energy of the current holds not yet physically drawn [J]: the held
  /// total minus what the store reports drawn since holds became
  /// outstanding. Approximation: every draw made while holds are
  /// outstanding is attributed to the holds. A concurrent *non-held*
  /// consumer (control logic, an unadmitted load on the same store)
  /// therefore makes available() optimistic by at most its own draw —
  /// bounded and transient — whereas the old accounting pessimised by
  /// the *full* energy every running task had already drawn, rejecting
  /// work the store could afford for the task's whole runtime. In the
  /// token-scheduler deployment all load draws during holds are the held
  /// tasks' own slices, so the attribution is exact.
  double outstanding_hold_j() const;

  /// Try to put a hold on `n` tokens; the energy is still in the store
  /// (the task draws it physically while running) but no other task may
  /// claim it. Returns false if not available.
  bool try_acquire(std::uint64_t n);

  /// Release a hold after the task finished (or was aborted); the
  /// physical draw already happened through the supply.
  void release(std::uint64_t n);

  double token_j() const { return token_j_; }
  std::uint64_t holds() const { return held_; }
  std::uint64_t rejections() const { return rejections_; }

 private:
  supply::StorageCap* store_;
  double token_j_;
  double reserve_v_;
  std::uint64_t held_ = 0;
  /// Store total_energy_drawn() when the oldest outstanding hold was
  /// placed; draws past this point count against the holds.
  double hold_drawn_baseline_j_ = 0.0;
  std::uint64_t rejections_ = 0;
};

}  // namespace emc::sched
