#include "analysis/sweep_runner.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

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

std::vector<std::string>& ScenarioOutput::add_row(std::size_t cells) {
  if (row_count == rows.size()) rows.emplace_back();
  std::vector<std::string>& row = rows[row_count++];
  // assign() overwrites the spent cells in place: "-" fits any string's
  // storage, so a recycled row of the same width allocates nothing.
  row.assign(cells, std::string(1, '-'));
  return row;
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

  // The calling thread is one of the `threads`: it starts threads - 1
  // workers (none on the serial path) and claims indices beside them.
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();

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

void SweepRunner::for_indexed_streaming(std::size_t n, unsigned threads,
                                        const Produce& produce,
                                        const Consume& consume) {
  if (n == 0) return;
  threads =
      static_cast<unsigned>(std::min<std::size_t>(std::max(threads, 1u), n));

  // Threads claim contiguous blocks of indices, produce a whole block,
  // and publish block b into slot b % window of a ring; the calling
  // thread consumes the blocks in order, in place. At one thread the
  // caller claims, produces and consumes every block itself, in index
  // order, and no worker starts. A block is claimed by one atomic
  // operation and published under one lock, and the caller is woken
  // only when the block it waits for lands, so the handoff costs per
  // block rather than per index. A thread starts block b only once the
  // caller has finished block b - window, so at most window blocks are
  // in flight, and finishing a block wakes only the worker parked on
  // its slot. Publishing swaps the producer's block with the slot's
  // spent one, which that producer fills next: outputs and their rows
  // circulate between the ring and the threads and are never freed
  // during the sweep.
  const std::size_t block = block_size(n, threads);
  const std::size_t window = window_blocks(block, threads);
  const std::size_t blocks = (n + block - 1) / block;

  // ok[k] is 0 where produce() threw, so the consumer skips that index;
  // its size is the block's length (outputs may hold more, spent).
  struct Block {
    std::vector<ScenarioOutput> outputs;
    std::vector<char> ok;
  };
  struct Slot {
    Block block;
    bool ready = false;
    std::condition_variable space;  // the producer of the slot's next block
  };

  std::mutex mu;  // guards ring, finished, aborted, first_error*
  std::vector<Slot> ring(window);
  std::size_t finished = 0;  // blocks the caller has consumed
  bool aborted = false;
  std::size_t first_error_index = n;
  std::exception_ptr first_error;
  std::condition_variable ready_cv;  // the caller waits for block `finished`

  std::atomic<std::size_t> next{0};
  // Produce block b into `mine` on thread `thread`, then publish it.
  const auto produce_block = [&](std::size_t b, unsigned thread,
                                 Block& mine) {
    const std::size_t lo = b * block;
    const std::size_t len = std::min(lo + block, n) - lo;
    if (mine.outputs.size() < len) mine.outputs.resize(len);
    mine.ok.assign(len, 1);
    std::size_t error_index = n;
    std::exception_ptr error;
    for (std::size_t k = 0; k < len; ++k) {
      ScenarioOutput& out = mine.outputs[k];
      out.clear();
      try {
        produce(lo + k, thread, out);
      } catch (...) {
        mine.ok[k] = 0;
        if (!error) {
          error_index = lo + k;
          error = std::current_exception();
        }
      }
    }
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu);
      Slot& slot = ring[b % window];
      slot.block.outputs.swap(mine.outputs);
      slot.block.ok.swap(mine.ok);
      slot.ready = true;
      if (error && error_index < first_error_index) {
        first_error_index = error_index;
        first_error = std::move(error);
      }
      wake = thread != 0 && b == finished;
    }
    if (wake) ready_cv.notify_one();
  };

  const auto worker = [&](unsigned thread) {
    Block mine;
    for (std::size_t b = next++; b < blocks; b = next++) {
      {
        std::unique_lock<std::mutex> lk(mu);
        ring[b % window].space.wait(
            lk, [&] { return aborted || b < finished + window; });
        if (aborted) return;
      }
      produce_block(b, thread, mine);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);

  Block mine;  // the caller's own production buffer
  std::exception_ptr consumer_error;
  for (std::size_t b = 0; b < blocks && !consumer_error; ++b) {
    Slot& slot = ring[b % window];
    // Until block b lands, produce the next unclaimed block inside the
    // window (b itself, if no worker has claimed it). With none left the
    // caller sleeps: only its own finishing of b opens the window
    // further, so nothing it could produce appears while it waits.
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(mu);
        if (slot.ready) break;
      }
      const std::size_t limit = std::min(blocks, b + window);
      std::size_t c = next.load();
      while (c < limit && !next.compare_exchange_weak(c, c + 1)) {
      }
      if (c >= limit) {
        std::unique_lock<std::mutex> lk(mu);
        ready_cv.wait(lk, [&] { return slot.ready; });
        break;
      }
      produce_block(c, 0, mine);
    }
    // No producer touches the slot again until `finished` passes b, so
    // it is read without the lock.
    const Block& done = slot.block;
    for (std::size_t k = 0; k < done.ok.size(); ++k) {
      if (!done.ok[k]) continue;
      try {
        consume(b * block + k, done.outputs[k]);
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
    if (consumer_error) {
      for (Slot& s : ring) s.space.notify_all();
    } else {
      slot.space.notify_all();  // block b + window's producer, if parked
    }
  }
  for (auto& th : pool) th.join();

  if (consumer_error) std::rethrow_exception(consumer_error);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace emc::analysis
