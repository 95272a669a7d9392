#include "analysis/sweep_runner.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>

namespace emc::analysis {

std::string SweepReport::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu scenarios on %u thread%s: %llu events in %.3f s "
                "(%.3g ev/s)",
                scenarios, threads, threads == 1 ? "" : "s",
                static_cast<unsigned long long>(kernel_stats.events_executed),
                wall_seconds,
                wall_seconds > 0.0
                    ? static_cast<double>(kernel_stats.events_executed) /
                          wall_seconds
                    : 0.0);
  return buf;
}

void SweepReport::print_summary() const {
  std::printf("[sweep] %s\n", summary().c_str());
}

unsigned SweepRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EMC_SWEEP_THREADS")) {
    // The whole value must be an unsigned decimal that fits: "4x", "+3"
    // or a count past UINT_MAX is unset, not a truncated guess.
    const char* end = env + std::strlen(env);
    unsigned v = 0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec == std::errc() && ptr == end && v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void SweepRunner::for_indexed(std::size_t n, unsigned threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(std::max(threads, 1u), n));

  // Only the lowest-index error is ever rethrown, so it is the only one
  // kept: memory stays O(threads) at any n.
  std::mutex mu;  // guards first_error*
  std::size_t first_error_index = n;
  std::exception_ptr first_error;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  if (threads == 1) {
    worker();  // serial path: run inline, no pool
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  if (first_error) std::rethrow_exception(first_error);
}

std::size_t SweepRunner::block_size(std::size_t n, unsigned threads) {
  const std::size_t per_thread =
      n / (static_cast<std::size_t>(std::max(threads, 1u)) * 64);
  return std::clamp<std::size_t>(per_thread, 1, 64);
}

std::size_t SweepRunner::window_blocks(std::size_t block, unsigned threads) {
  return std::max<std::size_t>(static_cast<std::size_t>(threads) * 4,
                               64 / std::max<std::size_t>(block, 1));
}

void SweepRunner::for_indexed_streaming(
    std::size_t n, unsigned threads,
    const std::function<ScenarioOutput(std::size_t)>& produce,
    const std::function<void(std::size_t, ScenarioOutput&&)>& consume) {
  if (n == 0) return;
  threads =
      static_cast<unsigned>(std::min<std::size_t>(std::max(threads, 1u), n));

  if (threads == 1) {
    // Serial path: produce and consume inline, strictly in order. This
    // is the reference ordering the parallel path must reproduce; the
    // first error it meets is the lowest-index one.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<ScenarioOutput> out;
      try {
        out.emplace(produce(i));
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
      if (out) consume(i, std::move(*out));
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // Parallel path: workers claim contiguous blocks of indices, produce a
  // whole block, and publish block b into slot b % window of a ring; the
  // calling thread consumes the blocks in order, in place. A block is
  // claimed by one atomic add and published under one lock, and the
  // caller is woken only when the block it waits for lands, so the
  // handoff costs per block rather than per index. A worker starts block
  // b only once the caller has finished block b - window, so at most
  // window blocks are in flight. Publishing swaps the worker's buffer
  // with the slot's spent block, which the worker clears before its next
  // block. Outputs are thus freed on worker threads, which allocate the
  // next ones from what they free, not all on the caller, which
  // allocates none (about 10% of fig_mc_yield wall time at 4 threads on
  // a 4-vCPU VM).
  const std::size_t block = block_size(n, threads);
  const std::size_t window = window_blocks(block, threads);
  const std::size_t blocks = (n + block - 1) / block;

  // An empty optional marks an index whose produce() threw, so the
  // consumer skips it.
  using Block = std::vector<std::optional<ScenarioOutput>>;
  struct Slot {
    Block outputs;
    bool ready = false;
  };

  std::mutex mu;  // guards ring, finished, aborted, first_error*
  std::vector<Slot> ring(window);
  std::size_t finished = 0;  // blocks the caller has consumed
  bool aborted = false;
  std::size_t first_error_index = n;
  std::exception_ptr first_error;
  std::condition_variable space_cv;  // producers wait for ring room
  std::condition_variable ready_cv;  // the caller waits for block `finished`

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    Block outputs;  // after a publish: the spent block taken from the slot
    for (std::size_t b = next++; b < blocks; b = next++) {
      {
        std::unique_lock<std::mutex> lk(mu);
        space_cv.wait(lk, [&] { return aborted || b < finished + window; });
        if (aborted) return;
      }
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(lo + block, n);
      outputs.clear();
      outputs.resize(hi - lo);
      std::size_t error_index = n;
      std::exception_ptr error;
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          outputs[i - lo].emplace(produce(i));
        } catch (...) {
          if (!error) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
      bool wake;
      {
        std::lock_guard<std::mutex> lk(mu);
        Slot& slot = ring[b % window];
        slot.outputs.swap(outputs);
        slot.ready = true;
        if (error && error_index < first_error_index) {
          first_error_index = error_index;
          first_error = std::move(error);
        }
        wake = b == finished;
      }
      if (wake) ready_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);

  std::exception_ptr consumer_error;
  for (std::size_t b = 0; b < blocks && !consumer_error; ++b) {
    Slot& slot = ring[b % window];
    {
      std::unique_lock<std::mutex> lk(mu);
      ready_cv.wait(lk, [&] { return slot.ready; });
    }
    // No worker touches the slot again until `finished` passes b, so it
    // is read without the lock.
    for (std::size_t k = 0; k < slot.outputs.size(); ++k) {
      if (!slot.outputs[k]) continue;
      try {
        consume(b * block + k, std::move(*slot.outputs[k]));
      } catch (...) {
        consumer_error = std::current_exception();
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      slot.ready = false;
      finished = b + 1;
      aborted = consumer_error != nullptr;
    }
    space_cv.notify_all();
  }
  for (auto& th : pool) th.join();

  if (consumer_error) std::rethrow_exception(consumer_error);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace emc::analysis
