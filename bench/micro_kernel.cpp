// Core performance suite — the numbers that bound experiment scale.
//
// Measures the hot paths every paper experiment sits on and writes
// a machine-readable BENCH_core.json so each PR is held to the recorded
// trajectory:
//   * kernel_events      — raw event schedule/dispatch throughput
//   * delay_model_eval   — device::DelayModel::delay_seconds cost
//   * gate_oscillator    — full gate loop: listener dispatch + delay
//                          model + supply draw + energy meter
//   * sram_ops           — speed-independent SRAM write transactions
//   * sweep_throughput   — sweep events/s via summed Kernel::Stats
//   * queue_{uniform,monotone,cancel}_heap
//                        — hold-model shape benches pinning the event
//                          queue's envelope (see below)
//
// No google-benchmark dependency: a minimal best-of-N timer harness is
// all these throughput numbers need, and it keeps the bench buildable in
// every container the tests build in.
//
// Usage:
//   micro_kernel [--smoke] [--runs N] [--out FILE] [--baseline FILE]
//               [--check-tolerance FRAC]
//
// --smoke (or EMC_BENCH_SMOKE=1) shrinks batches ~20x for CI; the rates
// are noisier but the JSON shape is identical. --runs N executes the
// whole suite N times and reports each bench's *median* rate — the
// noise-tolerant estimator the CI perf gate uses (a single best-of run
// still jitters ~10% in a shared container). --baseline merges a
// previously recorded BENCH_core.json of the same mode (e.g.
// bench/refs/BENCH_baseline_smoke.json) into the output as
// `baseline_rate` / `speedup` per bench; with --check-tolerance FRAC the
// process exits non-zero when any bench's (median) rate falls below
// (1 - FRAC) x its baseline — an explicit-tolerance regression gate that
// ambient jitter cannot flake.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "async/counter.hpp"
#include "device/delay_model.hpp"
#include "exp/context_config.hpp"
#include "exp/workbench.hpp"
#include "gates/combinational.hpp"
#include "sim/kernel.hpp"
#include "sram/si_controller.hpp"

namespace {

using namespace emc;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;  // defeats dead-code elimination

struct BenchResult {
  std::string name;
  std::string unit;
  std::uint64_t items = 0;  // items of the best batch
  double seconds = 0.0;     // wall time of the best batch
  double rate = 0.0;        // best items/second over all batches
  double baseline_rate = 0.0;  // 0 = no baseline available
};

/// Run `batch` (which returns items processed) `reps` times and keep the
/// best rate — the standard throughput estimator: the minimum-overhead
/// run is the one closest to the true cost of the code under test.
BenchResult run_bench(const std::string& name, const std::string& unit,
                      int reps, const std::function<std::uint64_t()>& batch) {
  BenchResult r;
  r.name = name;
  r.unit = unit;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const std::uint64_t items = batch();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s <= 0.0 || items == 0) continue;
    const double rate = static_cast<double>(items) / s;
    if (rate > r.rate) {
      r.rate = rate;
      r.items = items;
      r.seconds = s;
    }
  }
  std::printf("  %-21s %12.3e %s  (%llu items in %.4f s)\n", name.c_str(),
              r.rate, unit.c_str(), static_cast<unsigned long long>(r.items),
              r.seconds);
  return r;
}

// --- the component benches ---------------------------------------------------

BenchResult bench_kernel_events(bool smoke) {
  const int rounds = smoke ? 10 : 200;
  return run_bench("kernel_events", "events/s", smoke ? 3 : 5, [rounds] {
    sim::Kernel k;
    const std::uint64_t before = k.events_executed();
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 5000; ++i) {
        k.schedule(static_cast<sim::Time>(i % 97), [] {});
      }
      k.run();
    }
    return k.events_executed() - before;
  });
}

BenchResult bench_delay_model_eval(bool smoke) {
  const std::uint64_t n = smoke ? 100'000 : 2'000'000;
  device::DelayModel model{device::Tech::umc90()};
  return run_bench("delay_model_eval", "evals/s", smoke ? 3 : 5, [n, &model] {
    double acc = 0.0;
    double v = 0.15;
    for (std::uint64_t i = 0; i < n; ++i) {
      acc += model.delay_seconds(v, 2e-15);
      v += 0.001;
      if (v > 1.1) v = 0.15;
    }
    g_sink = acc;
    return n;
  });
}

BenchResult bench_gate_oscillator(bool smoke) {
  const sim::Time horizon = smoke ? sim::ns(200) : sim::us(2);
  return run_bench("gate_oscillator", "transitions/s", smoke ? 3 : 5,
                   [horizon] {
                     auto ex = exp::ContextConfig::battery(1.0).build();
                     sim::Wire osc(ex.kernel(), "osc", false);
                     gates::CombGate inv(ex.ctx(), "inv", gates::Op::kInv,
                                         {&osc}, osc);
                     inv.touch();
                     ex.kernel().run_until(horizon);
                     return osc.transitions();
                   });
}

BenchResult bench_sram_ops(bool smoke) {
  const std::uint16_t n = smoke ? 200 : 2000;
  return run_bench("sram_ops", "ops/s", smoke ? 3 : 5, [n] {
    auto ex = exp::ContextConfig::battery(1.0).build();
    sram::SiSram sram(ex.ctx(), "sram", sram::SiSramParams{});
    for (std::uint16_t v = 0; v < n; ++v) {
      sram.write(v % 64u, v, nullptr);
      ex.kernel().run();
    }
    return static_cast<std::uint64_t>(n);
  });
}

BenchResult bench_sweep_throughput(bool smoke) {
  const std::size_t points = smoke ? 6 : 16;
  std::vector<double> grid;
  for (std::size_t i = 0; i < points; ++i) {
    grid.push_back(0.3 + 0.05 * static_cast<double>(i));
  }
  const sim::Time horizon = smoke ? sim::ns(100) : sim::ns(500);
  return run_bench(
      "sweep_throughput", "events/s", smoke ? 2 : 3, [&grid, horizon] {
        exp::Workbench wb("sweep_throughput");
        wb.grid().over("vdd", grid);
        wb.columns({"vdd_V", "transitions"});
        const auto& report =
            wb.run([horizon](const exp::ParamSet& p, exp::Recorder& rec) {
              auto ex = exp::ContextConfig::battery(p.get<double>("vdd"))
                            .meter(false)
                            .build();
              sim::Wire osc(ex.kernel(), "osc", false);
              gates::CombGate inv(ex.ctx(), "inv", gates::Op::kInv, {&osc},
                                  osc);
              inv.touch();
              ex.kernel().run_until(horizon);
              rec.row()
                  .set("vdd_V", p.label())
                  .set("transitions", osc.transitions());
              rec.add_stats(ex.kernel().stats());
            });
        return report.kernel_stats.events_executed;
      });
}

// --- queue-shape microbenches -------------------------------------------
//
// The classic "hold" model isolates the priority structure: keep the
// queue at a fixed depth, and per operation pop the earliest event and
// schedule a replacement whose offset is drawn from the shape's
// distribution. Three shapes bound the queue's envelope:
//   * uniform — offsets spread over a wide horizon (log-depth sifts, no
//     order to exploit).
//   * monotone — offsets within a few ticks (oscillators, handshake
//     rings); near-sorted inserts.
//   * cancel — every op also schedules a far-future watchdog and
//     cancels it; stale entries accumulate until compaction, the
//     pattern that used to grow queues without bound.

enum class QueueShape { kUniform, kMonotone, kCancel };

std::uint64_t queue_hold_ops(QueueShape shape, std::size_t depth,
                             std::uint64_t ops) {
  // Deterministic xorshift: the same schedule every batch, every run.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rnd = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::uint64_t span =
      shape == QueueShape::kMonotone ? 16 : 1'000'000;
  sim::EventQueue q;
  sim::Time now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(1 + rnd() % span, [] {});
  }
  std::uint64_t fired = 0;
  sim::Time t = 0;
  sim::Action action;
  for (std::uint64_t i = 0; i < ops; ++i) {
    if (q.pop_due(sim::kTimeMax, t, action)) {
      now = t;
      ++fired;
    }
    q.schedule(now + 1 + rnd() % span, [] {});
    if (shape == QueueShape::kCancel) {
      // Watchdog pattern: armed far in the future, almost always
      // cancelled before it can surface.
      q.cancel(q.schedule(now + 500'000'000, [] {}));
    }
  }
  q.clear();
  return fired;
}

BenchResult bench_queue_shape(const char* name, QueueShape shape, bool smoke) {
  const std::size_t depth = 4096;
  const std::uint64_t ops = smoke ? 100'000 : 2'000'000;
  return run_bench(name, "ops/s", smoke ? 3 : 5, [shape, depth, ops] {
    g_sink = double(queue_hold_ops(shape, depth, ops));
    return ops;
  });
}

// --- baseline merge + JSON output ---------------------------------------

/// Pull `"rate":` for bench `name` out of a previously written
/// BENCH_core.json. A two-anchor scan is all the controlled format needs.
double baseline_rate_for(const std::string& text, const std::string& name) {
  const std::string anchor = "\"name\": \"" + name + "\"";
  std::size_t at = text.find(anchor);
  if (at == std::string::npos) return 0.0;
  at = text.find("\"rate\":", at);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + 7, nullptr);
}

void write_json(const std::string& path, const std::vector<BenchResult>& rs,
                bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"schema\": \"emc-bench-core-v1\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"benches\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"unit\": \"%s\", \"items\": %llu, "
                  "\"seconds\": %.6f, \"rate\": %.6e",
                  r.name.c_str(), r.unit.c_str(),
                  static_cast<unsigned long long>(r.items), r.seconds, r.rate);
    out << buf;
    if (r.baseline_rate > 0.0) {
      std::snprintf(buf, sizeof(buf),
                    ", \"baseline_rate\": %.6e, \"speedup\": %.3f",
                    r.baseline_rate, r.rate / r.baseline_rate);
      out << buf;
    }
    out << '}' << (i + 1 < rs.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

/// One full pass over the suite.
std::vector<BenchResult> run_suite(bool smoke) {
  std::vector<BenchResult> results;
  results.push_back(bench_kernel_events(smoke));
  results.push_back(bench_delay_model_eval(smoke));
  results.push_back(bench_gate_oscillator(smoke));
  results.push_back(bench_sram_ops(smoke));
  results.push_back(bench_sweep_throughput(smoke));
  results.push_back(
      bench_queue_shape("queue_uniform_heap", QueueShape::kUniform, smoke));
  results.push_back(
      bench_queue_shape("queue_monotone_heap", QueueShape::kMonotone, smoke));
  results.push_back(
      bench_queue_shape("queue_cancel_heap", QueueShape::kCancel, smoke));
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int runs = 1;
  double check_tolerance = -1.0;  // <0 = report only, no gate
  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  if (const char* env = std::getenv("EMC_BENCH_SMOKE")) {
    smoke = env[0] != '\0' && env[0] != '0';
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
      if (runs < 1) runs = 1;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-tolerance") == 0 &&
               i + 1 < argc) {
      check_tolerance = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--runs N] [--out FILE] "
                   "[--baseline FILE] [--check-tolerance FRAC]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("emc core perf suite (%s mode, %d run%s)\n",
              smoke ? "smoke" : "full", runs, runs == 1 ? "" : "s");
  std::vector<BenchResult> results = run_suite(smoke);
  if (runs > 1) {
    // Median-of-N: repeat the whole suite and keep, per bench, the run
    // with the median rate (items/seconds travel with it, so the JSON
    // stays self-consistent). The median shrugs off the one run a noisy
    // neighbour or a cold cache ruined.
    std::vector<std::vector<BenchResult>> all = {std::move(results)};
    for (int r = 1; r < runs; ++r) {
      std::printf("--- run %d/%d ---\n", r + 1, runs);
      all.push_back(run_suite(smoke));
    }
    results.clear();
    for (std::size_t b = 0; b < all[0].size(); ++b) {
      std::vector<std::size_t> order(all.size());
      for (std::size_t r = 0; r < all.size(); ++r) order[r] = r;
      std::sort(order.begin(), order.end(),
                [&](std::size_t x, std::size_t y) {
                  return all[x][b].rate < all[y][b].rate;
                });
      results.push_back(all[order[order.size() / 2]][b]);
    }
    std::printf("median rates over %d runs:\n", runs);
    for (const auto& r : results) {
      std::printf("  %-21s %12.3e %s\n", r.name.c_str(), r.rate,
                  r.unit.c_str());
    }
  }

  bool baseline_merged = false;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string mode = smoke ? "smoke" : "full";
    if (text.find("\"mode\": \"" + mode + "\"") == std::string::npos) {
      // Rates from different batch sizes are not comparable; a merged
      // speedup would read as a phantom regression.
      std::fprintf(stderr,
                   "baseline %s was recorded in a different mode than this "
                   "%s run; skipping speedup merge\n",
                   baseline_path.c_str(), mode.c_str());
    } else {
      baseline_merged = true;
      for (auto& r : results) {
        r.baseline_rate = baseline_rate_for(text, r.name);
        if (r.baseline_rate > 0.0) {
          std::printf("  %-21s speedup vs baseline: %.2fx\n", r.name.c_str(),
                      r.rate / r.baseline_rate);
        }
      }
    }
  }

  write_json(out_path, results, smoke);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_tolerance >= 0.0) {
    if (baseline_path.empty()) {
      std::fprintf(stderr, "--check-tolerance requires --baseline\n");
      return 2;
    }
    if (!baseline_merged) {
      // A gate that silently checked nothing would merge a regression
      // green; a skipped merge (mode mismatch) is a hard error here.
      std::fprintf(stderr,
                   "--check-tolerance: baseline %s is not comparable to "
                   "this run (mode mismatch); refusing a vacuous gate\n",
                   baseline_path.c_str());
      return 2;
    }
    int regressions = 0;
    int gated = 0;
    for (const auto& r : results) {
      if (r.baseline_rate <= 0.0) continue;  // bench new since baseline
      ++gated;
      const double floor = (1.0 - check_tolerance) * r.baseline_rate;
      if (r.rate < floor) {
        std::fprintf(stderr,
                     "PERF REGRESSION: %s %.3e %s < %.3e (baseline %.3e "
                     "- %.0f%% tolerance)\n",
                     r.name.c_str(), r.rate, r.unit.c_str(), floor,
                     r.baseline_rate, check_tolerance * 100.0);
        ++regressions;
      }
    }
    if (gated == 0) {
      std::fprintf(stderr,
                   "--check-tolerance: no bench matched the baseline; "
                   "refusing a vacuous gate\n");
      return 2;
    }
    if (regressions > 0) return 1;
    std::printf("perf gate: %d/%zu benches within %.0f%% of baseline\n",
                gated, results.size(), check_tolerance * 100.0);
  }
  return 0;
}
