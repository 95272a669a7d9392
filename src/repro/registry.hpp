// Reproduction registry — figures/tables as first-class subsystem.
//
// Every bench under bench/ used to be a bespoke main(); CI verified them
// through hand-copied shell snippets naming individual binaries and ref
// CSVs. The registry inverts that: a bench *registers* a Figure
// descriptor (title, produced artifacts, which of them are byte-compared
// against bench/refs/, default seed, trial model) plus a run function,
// and the single `emc_repro` driver derives everything else — the
// determinism cross-check, the drift gate, the manifest, the CI steps.
// Adding a figure == registering it; the build, the gates and the
// artifact list follow automatically.
//
// Registration happens from static initializers in the bench translation
// units, which are linked *directly* into the emc_repro executable —
// never through a static library, which would drop unreferenced
// registration objects.
//
// Usage, at the bottom of a bench .cpp (replacing main()):
//
//   static int run_fig2(const emc::repro::RunContext& ctx) { ... }
//   REPRO_FIGURE(fig2_qos_vs_vdd)
//       .title("QoS vs Vdd: SI dual-rail vs bundled vs hybrid")
//       .ref_csv("fig2_qos_vs_vdd.csv")
//       .run(run_fig2);
//
// The macro argument doubles as the registry key and must match the
// source file's stem: perfbench derives figure names from the bench
// file stems, and a CI step fails when `emc_repro list` and the stems
// differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/aggregate.hpp"
#include "sim/kernel.hpp"

namespace emc::lint {
class Session;
}

namespace emc::repro {

/// Per-run knobs handed to a figure body, plus the stats channel the
/// body reports its kernel totals through (they land in the manifest).
class RunContext {
 public:
  /// Sweep-thread override threaded into the Workbench by the
  /// body (0 = EMC_SWEEP_THREADS / hardware default). This is how
  /// --threads-cross-check re-runs a figure at several thread counts
  /// without racing on the process environment.
  unsigned threads = 0;

  /// The figure's default_seed unless overridden with --seed.
  std::uint64_t seed = 0;

  /// Trial-count override (--trials N); 0 = the figure's registered
  /// count. Bodies read it through trials_or().
  std::uint64_t trials_override = 0;

  /// The replication count a body should use: the override when given,
  /// otherwise the figure's registered count.
  std::size_t trials_or(std::size_t registered) const {
    return trials_override > 0 ? static_cast<std::size_t>(trials_override)
                               : registered;
  }

  /// Fold a kernel's execution stats into the figure's manifest record.
  void add_stats(const sim::Kernel::Stats& s) const { stats_ += s; }
  const sim::Kernel::Stats& stats() const { return stats_; }

 private:
  mutable sim::Kernel::Stats stats_;
};

using RunFn = int (*)(const RunContext&);

/// Static-lint hook: build the figure's circuits against the session's
/// scratch context and `check` each one. Never simulates.
using LintFn = void (*)(lint::Session&);

/// Builds a replicated figure's Aggregate spec: the reduction from its
/// per-trial rows to its reduced CSV.
using AggregateFn = analysis::Aggregate (*)();

/// The trial model of a replicated figure (one that runs every grid
/// point over N Monte-Carlo trials): the per-trial CSV, the reduced CSV,
/// and the shared reduction that derives the latter from the former.
/// run_replicated() (repro/replicated.hpp) writes exactly these two
/// files, and --trials is refused for a figure that registers none.
struct ShardModel {
  std::string trials_csv;
  std::string aggregate_csv;
  AggregateFn aggregate = nullptr;
};

/// One registered reproduction target.
struct Figure {
  std::string name;   // registry key == bench file stem
  std::string title;  // one-line description for `emc_repro list`
  /// Every file the run writes into the working directory (manifest
  /// scope; also the set compared across thread counts).
  std::vector<std::string> artifacts;
  /// Subset of `artifacts` that is byte-compared against
  /// bench/refs/<file> under --check.
  std::vector<std::string> refs;
  std::uint64_t default_seed = 0;
  RunFn run = nullptr;
  /// Optional static model, run by `emc_repro lint` / `sta` and the
  /// --lint / --sta gates. Null = the figure has no netlist to check;
  /// the driver reports that explicitly (exit 2) rather than passing
  /// vacuously.
  LintFn lint = nullptr;
  /// Trial model (replicated figures only); empty otherwise.
  ShardModel shard;

  /// True when the figure registers a trial model.
  bool replicated() const { return shard.aggregate != nullptr; }
};

class Registry {
 public:
  static Registry& instance();

  /// Register a figure. A duplicate name aborts the process — two
  /// benches silently shadowing each other is a build error, not a
  /// runtime preference.
  void add(Figure f);

  /// All figures, sorted by name (static-init order is link-order
  /// dependent; the registry's view is not).
  std::vector<const Figure*> figures() const;

  const Figure* find(const std::string& name) const;

 private:
  std::vector<Figure> figures_;
};

/// Registration token (the static object the macro defines).
struct Registration {};

/// Fluent descriptor builder; `.run(fn)` finalizes and registers.
class FigureBuilder {
 public:
  explicit FigureBuilder(const char* name) { fig_.name = name; }

  FigureBuilder& title(const char* t) {
    fig_.title = t;
    return *this;
  }
  /// Declare a produced file that has a recorded reference CSV.
  FigureBuilder& ref_csv(const char* file) {
    fig_.artifacts.push_back(file);
    fig_.refs.push_back(file);
    return *this;
  }
  /// Declare a produced file without a reference (VCD traces etc.).
  FigureBuilder& artifact(const char* file) {
    fig_.artifacts.push_back(file);
    return *this;
  }
  /// The seed the body reads from RunContext::seed; a figure that
  /// registers one accepts `--seed`. 0 means "unseeded" and aborts.
  FigureBuilder& seed(std::uint64_t s);
  /// Attach the figure's static-lint model.
  FigureBuilder& lint(LintFn fn) {
    fig_.lint = fn;
    return *this;
  }
  /// Declare the figure replicated: `trials_csv` is the per-trial
  /// artifact, `aggregate_csv` the reduced artifact, `fn` the Aggregate
  /// spec that reduces the one into the other.
  FigureBuilder& shard_model(const char* trials_csv, const char* aggregate_csv,
                             AggregateFn fn) {
    fig_.shard.trials_csv = trials_csv;
    fig_.shard.aggregate_csv = aggregate_csv;
    fig_.shard.aggregate = fn;
    return *this;
  }

  Registration run(RunFn fn) {
    fig_.run = fn;
    Registry::instance().add(std::move(fig_));
    return {};
  }

 private:
  Figure fig_;
};

#define REPRO_FIGURE(name)                                             \
  static const ::emc::repro::Registration name##_figure_registration = \
      ::emc::repro::FigureBuilder(#name)

}  // namespace emc::repro
