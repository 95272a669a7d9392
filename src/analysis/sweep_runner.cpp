#include "analysis/sweep_runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>

namespace emc::analysis {

bool SweepReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << table.to_csv();
  return static_cast<bool>(out);
}

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

SweepRunner::SweepRunner(std::vector<std::string> headers, Options opt)
    : headers_(std::move(headers)), opt_(opt) {}

unsigned SweepRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EMC_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void SweepRunner::for_indexed(std::size_t n, unsigned threads,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(std::max(threads, 1u), n));

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
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

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void SweepRunner::for_indexed_streaming(
    std::size_t n, unsigned threads,
    const std::function<ScenarioOutput(std::size_t)>& produce,
    const std::function<void(std::size_t, ScenarioOutput&&)>& consume) {
  if (n == 0) return;
  threads =
      static_cast<unsigned>(std::min<std::size_t>(std::max(threads, 1u), n));

  std::vector<std::exception_ptr> errors(n);

  if (threads == 1) {
    // Serial path: produce and consume inline, strictly in order. This
    // is the reference ordering the parallel path must reproduce.
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<ScenarioOutput> out;
      try {
        out.emplace(produce(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (out) consume(i, std::move(*out));
    }
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return;
  }

  // Parallel path: `threads` producers feed a bounded reorder buffer;
  // the calling thread drains it in index order. The window keeps
  // producers from racing arbitrarily far ahead of the consumer — the
  // in-flight output count (and so the memory footprint) is bounded by
  // window + threads regardless of n.
  const std::size_t window =
      std::max<std::size_t>(static_cast<std::size_t>(threads) * 4, 64);

  std::mutex mu;
  std::condition_variable space_cv;  // producers wait for window room
  std::condition_variable ready_cv;  // the consumer waits for the next index
  // Buffered outputs keyed by index; an empty optional marks an index
  // whose produce() threw (recorded in errors), so the consumer can
  // skip it without waiting forever.
  std::map<std::size_t, std::optional<ScenarioOutput>> ready;
  std::size_t next_deliver = 0;
  bool aborted = false;

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (std::size_t i = next++; i < n; i = next++) {
      {
        std::unique_lock<std::mutex> lk(mu);
        space_cv.wait(lk, [&] { return aborted || i < next_deliver + window; });
        if (aborted) return;
      }
      std::optional<ScenarioOutput> out;
      try {
        out.emplace(produce(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        ready.emplace(i, std::move(out));
      }
      ready_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);

  std::exception_ptr consumer_error;
  for (std::size_t d = 0; d < n; ++d) {
    std::optional<ScenarioOutput> out;
    {
      std::unique_lock<std::mutex> lk(mu);
      ready_cv.wait(lk, [&] { return ready.count(d) != 0; });
      out = std::move(ready.begin()->second);
      ready.erase(ready.begin());
      next_deliver = d + 1;
    }
    space_cv.notify_all();
    if (out) {
      try {
        consume(d, std::move(*out));
      } catch (...) {
        consumer_error = std::current_exception();
        {
          std::lock_guard<std::mutex> lk(mu);
          aborted = true;
        }
        space_cv.notify_all();
        break;
      }
    }
  }
  for (auto& th : pool) th.join();

  if (consumer_error) std::rethrow_exception(consumer_error);
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

SweepReport SweepRunner::run_streaming(
    std::size_t n, const std::function<ScenarioOutput(std::size_t)>& produce,
    const std::function<void(std::size_t, ScenarioOutput&&)>& consume) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      resolve_threads(opt_.threads), std::max<std::size_t>(n, 1)));

  SweepReport report;
  report.table = Table(headers_);
  report.scenarios = n;
  report.threads = threads;
  for_indexed_streaming(
      n, threads, produce,
      [&](std::size_t i, ScenarioOutput&& out) {
        report.kernel_stats += out.stats;
        consume(i, std::move(out));
      });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

}  // namespace emc::analysis
