// SweepRunner determinism, scheduling and error-contract tests.
//
// The engine's contract: results come back in scenario order, and a
// sweep's table/CSV output is byte-identical at any thread count. The
// bodies here run real (small) kernels with deliberately uneven cost so
// completion order differs from scenario order under parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sweep_runner.hpp"
#include "sim/kernel.hpp"

namespace emc::analysis {
namespace {

// Costs spanning 3 decades so a fast scenario finishes long before a
// slow earlier one under parallel execution.
const std::vector<double> kUnevenTicks = {4000, 10,   2000, 1,    800,  50,
                                          3000, 5,    1500, 100,  2500, 20};

// A scenario body that simulates kUnevenTicks[point] events on its own
// kernel and reports the count — cheap, deterministic, and uneven
// across scenarios.
void simulate_point(std::size_t point, unsigned, ScenarioOutput& out) {
  sim::Kernel kernel;
  const auto ticks = static_cast<std::uint64_t>(kUnevenTicks[point]);
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < ticks; ++i) {
    kernel.schedule(static_cast<sim::Time>(i % 11 + 1), [&fired] { ++fired; });
  }
  kernel.run_until(sim::kTimeMax);
  std::vector<std::string>& row = out.add_row(2);
  row[0] = "ticks=" + Table::num(kUnevenTicks[point]);
  row[1] = std::to_string(fired);
  out.stats = kernel.stats();
}

// Stream every tick-list point, appending each delivered row to a table
// (what exp::Workbench::run does).
Table sweep(unsigned threads) {
  Table table({"scenario", "fired"});
  SweepRunner::for_indexed_streaming(
      kUnevenTicks.size(), threads, simulate_point,
      [&](std::size_t, const ScenarioOutput& out) {
        for (std::size_t r = 0; r < out.row_count; ++r) {
          table.add_row(out.rows[r]);
        }
      });
  return table;
}

TEST(SweepRunner, ResultsInScenarioOrder) {
  const Table table = sweep(4);
  EXPECT_EQ(table.row_count(), kUnevenTicks.size());
  const std::string csv = table.to_csv();
  // Header + rows in scenario (not completion) order.
  std::size_t pos = csv.find("ticks=4000");
  ASSERT_NE(pos, std::string::npos);
  for (const char* label : {"ticks=10", "ticks=2000", "ticks=1"}) {
    const std::size_t next = csv.find(label, pos);
    ASSERT_NE(next, std::string::npos) << label;
    EXPECT_GT(next, pos);
    pos = next;
  }
}

TEST(SweepRunner, CsvByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> csvs;
  for (unsigned threads : {1u, 2u, 7u}) {
    csvs.push_back(sweep(threads).to_csv());
  }
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
}

TEST(SweepRunner, EachIndexVisitedExactlyOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> visits(kN);
  SweepRunner::for_indexed(kN, 8, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(SweepRunner, LowestIndexExceptionWinsAtAnyThreadCount) {
  // Several indices throw, on whichever workers claim them and in any
  // completion order; every index still runs, and the lowest one's
  // exception is the one that surfaces.
  constexpr std::size_t kN = 257;
  for (unsigned threads : {1u, 3u, 4u, 8u}) {
    std::vector<std::atomic<int>> visits(kN);
    try {
      SweepRunner::for_indexed(kN, threads, [&](std::size_t i) {
        ++visits[i];
        if (i % 37 == 3 || i == kN - 1) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "threads = " << threads;
    }
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
  }
}

// Thread counts for the block-handoff tests: the serial path, odd
// counts (ragged block distribution) and the common 4.
const unsigned kStreamThreads[] = {1, 3, 4, 7};

void tagged(std::size_t i, unsigned, ScenarioOutput& out) {
  out.add_row(1)[0] = std::to_string(i);
}

/// Whether `out` is index i's tagged output and nothing more: a recycled
/// output must not carry an earlier scenario's rows.
void expect_tagged(const ScenarioOutput& out, std::size_t i) {
  ASSERT_EQ(out.row_count, 1u);
  ASSERT_EQ(out.rows.at(0).at(0), std::to_string(i));
}

TEST(SweepRunner, StreamingDeliversEveryIndexOnceInOrder) {
  for (unsigned threads : kStreamThreads) {
    // n = full is the first count with 64-index blocks; one below it
    // blocks are 63 wide, one above it the last block holds one index.
    const std::size_t full = static_cast<std::size_t>(threads) * 64 * 64;
    ASSERT_EQ(SweepRunner::block_size(full - 1, threads), 63u);
    ASSERT_EQ(SweepRunner::block_size(full, threads), 64u);
    for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, full - 1, full, full + 1,
                          std::size_t{10003}}) {
      std::vector<std::size_t> consumed;
      SweepRunner::for_indexed_streaming(
          n, threads, tagged, [&](std::size_t i, const ScenarioOutput& out) {
            expect_tagged(out, i);
            consumed.push_back(i);
          });
      ASSERT_EQ(consumed.size(), n) << "threads " << threads << " n " << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(consumed[i], i) << "threads " << threads << " n " << n;
      }
    }
  }
}

TEST(SweepRunner, StreamingProduceErrorSkipsIndexAndRethrowsLowest) {
  constexpr std::size_t kN = 10003;
  for (unsigned threads : kStreamThreads) {
    const std::size_t block = SweepRunner::block_size(kN, threads);
    // Failures at the first index of one block and the last index of
    // another, with either one the lower.
    const std::vector<std::vector<std::size_t>> cases = {
        {3 * block, 5 * block - 1}, {2 * block - 1, 5 * block}};
    for (const auto& failing : cases) {
      const auto fails = [&](std::size_t i) {
        return std::find(failing.begin(), failing.end(), i) != failing.end();
      };
      std::vector<std::size_t> consumed;
      try {
        SweepRunner::for_indexed_streaming(
            kN, threads,
            [&](std::size_t i, unsigned thread, ScenarioOutput& out) {
              if (fails(i)) {
                throw std::runtime_error("boom " + std::to_string(i));
              }
              tagged(i, thread, out);
            },
            [&](std::size_t i, const ScenarioOutput& out) {
              expect_tagged(out, i);
              consumed.push_back(i);
            });
        FAIL() << "expected exception, threads = " << threads;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), "boom " + std::to_string(failing[0]))
            << "threads = " << threads;
      }
      // Every other index was still produced and consumed, in order.
      std::vector<std::size_t> want;
      for (std::size_t i = 0; i < kN; ++i) {
        if (!fails(i)) want.push_back(i);
      }
      EXPECT_EQ(consumed, want) << "threads = " << threads;
    }
  }
}

TEST(SweepRunner, StreamingConsumeErrorAbortsWithoutHanging) {
  // n is far beyond the reorder window, so producers are parked on
  // backpressure when the consumer throws; the abort must release them,
  // and no block beyond the window may start afterwards.
  constexpr std::size_t kN = 100000;
  for (unsigned threads : kStreamThreads) {
    const std::size_t block = SweepRunner::block_size(kN, threads);
    const std::size_t window = SweepRunner::window_blocks(block, threads);
    const std::size_t fail_at = 10 * block + block / 2;  // mid-block
    std::atomic<std::size_t> produced{0};
    std::size_t consumed = 0;
    try {
      SweepRunner::for_indexed_streaming(
          kN, threads,
          [&](std::size_t, unsigned, ScenarioOutput&) { ++produced; },
          [&](std::size_t i, const ScenarioOutput&) {
            if (i == fail_at) throw std::runtime_error("sink full");
            ++consumed;
          });
      FAIL() << "expected exception, threads = " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "sink full") << "threads = " << threads;
    }
    EXPECT_EQ(consumed, fail_at) << "threads = " << threads;
    EXPECT_LE(produced.load(), (fail_at / block + window) * block)
        << "threads = " << threads;
  }
}

TEST(SweepRunner, StreamingInFlightOutputsStayWithinBound) {
  // An output is alive from the start of its produce() call to the end
  // of its consume() call. The documented bound is window x block.
  constexpr std::size_t kN = 100000;
  for (unsigned threads : kStreamThreads) {
    const std::size_t block = SweepRunner::block_size(kN, threads);
    const std::size_t bound =
        SweepRunner::window_blocks(block, threads) * block;
    std::atomic<std::size_t> alive{0};
    std::atomic<std::size_t> peak{0};
    std::size_t consumed = 0;
    SweepRunner::for_indexed_streaming(
        kN, threads,
        [&](std::size_t, unsigned, ScenarioOutput&) {
          const std::size_t now = ++alive;  // exact: one atomic counter
          std::size_t seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
        },
        [&](std::size_t, const ScenarioOutput&) {
          ++consumed;
          --alive;
        });
    EXPECT_EQ(consumed, kN) << "threads = " << threads;
    EXPECT_LE(peak.load(), bound) << "threads = " << threads;
    EXPECT_GT(peak.load(), 0u) << "threads = " << threads;
  }
}

/// Tracks how many calls run at once; each call holds its slot for a
/// moment so that the threads' calls overlap.
struct Concurrency {
  std::atomic<unsigned> now{0};
  std::atomic<unsigned> peak{0};

  void enter() {
    const unsigned n = ++now;
    unsigned seen = peak.load();
    while (n > seen && !peak.compare_exchange_weak(seen, n)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    --now;
  }
};

TEST(SweepRunner, AtMostThreadsCallsRunAtOnceCallerIncluded) {
  // The calling thread is one of the `threads`: it runs indices beside
  // threads - 1 workers, so the overlap never exceeds `threads`.
  constexpr std::size_t kN = 400;
  for (unsigned threads : {1u, 2u, 3u, 4u}) {
    Concurrency c;
    std::atomic<std::size_t> on_caller{0};
    const auto caller = std::this_thread::get_id();
    SweepRunner::for_indexed(kN, threads, [&](std::size_t) {
      c.enter();
      if (std::this_thread::get_id() == caller) ++on_caller;
    });
    EXPECT_LE(c.peak.load(), threads) << "threads = " << threads;
    EXPECT_GT(on_caller.load(), 0u) << "threads = " << threads;
  }
}

TEST(SweepRunner, StreamingRunsAtMostThreadsProducersAndConsumesOnCaller) {
  constexpr std::size_t kN = 400;
  for (unsigned threads : kStreamThreads) {
    Concurrency c;
    std::atomic<bool> thread_ids_ok{true};
    std::vector<std::thread::id> seen_on(threads);  // one writer per slot
    std::size_t off_caller = 0;
    std::size_t consumed = 0;
    const auto caller = std::this_thread::get_id();
    SweepRunner::for_indexed_streaming(
        kN, threads,
        [&](std::size_t i, unsigned thread, ScenarioOutput& out) {
          if (thread >= threads) {
            thread_ids_ok = false;
            return;
          }
          // A thread index names one thread for the whole call, and 0
          // is the caller.
          const auto me = std::this_thread::get_id();
          if (seen_on[thread] == std::thread::id()) seen_on[thread] = me;
          if (seen_on[thread] != me || (thread == 0) != (me == caller)) {
            thread_ids_ok = false;
          }
          c.enter();
          tagged(i, thread, out);
        },
        [&](std::size_t i, const ScenarioOutput& out) {
          if (std::this_thread::get_id() != caller) ++off_caller;
          expect_tagged(out, i);
          ++consumed;
        });
    EXPECT_EQ(consumed, kN) << "threads = " << threads;
    EXPECT_EQ(off_caller, 0u) << "threads = " << threads;
    EXPECT_TRUE(thread_ids_ok.load()) << "threads = " << threads;
    EXPECT_LE(c.peak.load(), threads) << "threads = " << threads;
  }
}

TEST(SweepRunner, EnvVarControlsThreadResolution) {
  ASSERT_EQ(unsetenv("EMC_SWEEP_THREADS"), 0);
  const unsigned unset = SweepRunner::resolve_threads(0);
  EXPECT_GE(unset, 1u);
  ASSERT_EQ(setenv("EMC_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(SweepRunner::resolve_threads(0), 3u);
  EXPECT_EQ(SweepRunner::resolve_threads(5), 5u);  // explicit wins
  // Only a whole unsigned decimal above zero counts; anything else, a
  // value past UINT_MAX included, reads as unset. resolve_threads only
  // returns a count, so none of these starts a thread.
  for (const char* bad : {"4x", "+3", "-2", " 3", "3 ", "0", "", "0x4",
                          "99999999999", "4294967296"}) {
    ASSERT_EQ(setenv("EMC_SWEEP_THREADS", bad, 1), 0);
    EXPECT_EQ(SweepRunner::resolve_threads(0), unset) << '"' << bad << '"';
  }
  ASSERT_EQ(setenv("EMC_SWEEP_THREADS", "4294967295", 1), 0);
  EXPECT_EQ(SweepRunner::resolve_threads(0), 4294967295u);
  ASSERT_EQ(unsetenv("EMC_SWEEP_THREADS"), 0);
}

}  // namespace
}  // namespace emc::analysis
