// Parallel scenario-sweep engine.
//
// Every figure bench in this repo is the same workload: a grid of
// scenarios (Vdd points, energy quanta, harvester seeds), each simulated
// on its own emc::sim::Kernel, each producing a few table rows. The
// kernels are fully independent — a Kernel owns all of its mutable state
// — so scenarios run one-per-thread with no locking.
//
// Determinism contract: the body is called exactly once per scenario,
// scenarios never share a kernel, and results are emitted in scenario
// order regardless of thread count or completion order. A sweep run with
// EMC_SWEEP_THREADS=1 and EMC_SWEEP_THREADS=N produces byte-identical
// tables and CSV (enforced by tests/sweep_runner_test.cpp).
//
// Threads: a sweep of `threads` runs on threads - 1 workers plus the
// calling thread, which produces scenarios itself whenever the block it
// must hand on next is not ready yet. At no time do more than `threads`
// scenario bodies run at once.
//
// Handoff: scenarios are enumerated lazily. Threads claim contiguous
// blocks of scenario indices and hand each finished block to the
// consumer at once, through a reorder window that counts blocks, so the
// locking and wake-ups cost per block, not per scenario. Block size and
// window depend only on the scenario count and the thread count (see
// block_size() and window_blocks()); at most window x block outputs are
// in flight. Outputs are recycled, not freed: a spent block goes back to
// the next thread that publishes into its ring slot, so rows are filled
// into storage earlier scenarios allocated. Memory is the window's
// blocks plus one spare block per thread: O(threads) however long the
// sweep.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "sim/kernel.hpp"

namespace emc::analysis {

/// What a scenario body hands back: zero or more table rows plus the
/// kernel's execution stats (so the sweep can report total throughput).
/// The sweep reuses an output for scenario after scenario: rows
/// [0, row_count) are the current scenario's, and the entries past them
/// are spent rows whose storage the next add_row() fills again.
struct ScenarioOutput {
  std::vector<std::vector<std::string>> rows;
  std::size_t row_count = 0;
  sim::Kernel::Stats stats;

  /// Open the next row with `cells` cells, each "-", reusing a spent
  /// row's storage when there is one.
  std::vector<std::string>& add_row(std::size_t cells);

  /// Forget the rows and stats, keeping the rows' storage.
  void clear() {
    row_count = 0;
    stats = sim::Kernel::Stats();
  }
};

/// Aggregated result of a sweep, rows in scenario order.
struct SweepReport {
  Table table;
  std::size_t scenarios = 0;
  unsigned threads = 1;
  double wall_seconds = 0.0;        // whole-sweep wall clock
  sim::Kernel::Stats kernel_stats;  // summed over scenarios

  std::string to_csv() const { return table.to_csv(); }

  /// "N scenarios on T threads: E events in W s (R ev/s)".
  std::string summary() const;
  void print_summary() const;
};

/// The sweep engine's entry points. exp::Workbench is the usual caller;
/// it resolves the thread count and fills the SweepReport.
class SweepRunner {
 public:
  /// Resolve a thread request: `requested` when nonzero, else
  /// EMC_SWEEP_THREADS if it is a whole unsigned decimal above zero,
  /// else the hardware concurrency (at least 1).
  static unsigned resolve_threads(unsigned requested);

  /// Index-parallel loop: fn(i) for i in [0, n), each index visited
  /// exactly once, on threads - 1 workers and the calling thread, each
  /// claiming the next index with an atomic counter.
  /// Failures do not depend on scheduling: every index runs, then the
  /// lowest-index exception is rethrown. Only that one is kept, so the
  /// loop's own memory does not grow with n.
  static void for_indexed(std::size_t n, unsigned threads,
                          const std::function<void(std::size_t)>& fn);

  /// produce(i, thread, out) fills `out` (cleared, its storage kept) for
  /// scenario i. `thread` is in [0, threads): 0 is the calling thread,
  /// and no two calls with the same `thread` overlap, so a caller can
  /// keep per-thread scratch in a vector it sizes to `threads` for the
  /// length of the call.
  using Produce =
      std::function<void(std::size_t, unsigned, ScenarioOutput&)>;
  /// consume(i, out) reads scenario i's output; `out` is recycled after
  /// the call returns.
  using Consume = std::function<void(std::size_t, const ScenarioOutput&)>;

  /// The streaming building block: `produce` runs on the sweep's threads
  /// while `consume` runs on the *calling* thread, in strict index
  /// order, as results become available. Threads claim blocks of
  /// block_size(n, threads) consecutive indices, and the caller consumes
  /// each block whole once it is complete; while the block it needs next
  /// is not, the caller claims and produces blocks itself (at one thread
  /// it produces them all, and no worker starts). No thread starts a
  /// block unless it is fewer than window_blocks(block, threads) blocks
  /// ahead of the one the caller is on, so at most window x block
  /// outputs are in flight (from the start of produce() to the end of
  /// consume()). Consumed outputs are handed
  /// back to producers, which fill them again: a million-index stream
  /// holds O(threads) outputs instead of O(n), and allocates none once
  /// the first blocks have grown them — the memory contract behind
  /// exp::Workbench.
  ///
  /// Determinism: consume sees exactly the serial order at any thread
  /// count. Error semantics match for_indexed: a produce() exception is
  /// recorded, that index is skipped by consume, every other index still
  /// runs, and the lowest-index exception is rethrown at the end. A
  /// consume() exception aborts the stream and propagates once the
  /// workers have stopped; no thread starts a block after the abort.
  static void for_indexed_streaming(std::size_t n, unsigned threads,
                                    const Produce& produce,
                                    const Consume& consume);

  /// Indices per handoff block: clamp(n / (threads * 64), 1, 64). About
  /// 64 blocks per thread, so the tail stays balanced; a sweep of few
  /// heavy scenarios hands them over one at a time.
  static std::size_t block_size(std::size_t n, unsigned threads);

  /// Reorder window in blocks: max(4 * threads, 64 / block). With
  /// single-index blocks this is a max(4 * threads, 64)-scenario window,
  /// lookahead for uneven scenario costs; with 64-index blocks it lets
  /// each thread run up to four blocks ahead of the caller.
  static std::size_t window_blocks(std::size_t block, unsigned threads);
};

}  // namespace emc::analysis
