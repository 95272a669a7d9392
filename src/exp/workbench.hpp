// Workbench — the experiment façade every bench runs through.
//
// A Workbench owns the three things a figure/table experiment needs
// beyond its physics body:
//   * grid construction — `grid().over("vdd", ...).over("quantum", ...)`
//     builds the cartesian scenario set (first axis slowest, later axes
//     fastest; purely deterministic), or `scenarios(...)` takes an
//     explicit ParamSet list;
//   * a typed column schema — bodies fill named columns through a
//     Recorder (`rec.row().set("vdd_V", v)`), and an unknown column name
//     throws instead of silently shifting cells;
//   * execution + artifacts — scenarios are enumerated lazily and run
//     through analysis::SweepRunner's streaming engine (same pool, same
//     determinism contract: rows arrive in scenario order and are
//     byte-identical at any EMC_SWEEP_THREADS). run() collects them into
//     a table that prints / writes the CSV artifact; run_streaming()
//     hands them to a caller-supplied sink instead.
//
// The body receives (const ParamSet&, Recorder&): typed named parameters
// in, named rows + kernel stats out. Recorder::index() identifies the
// scenario slot for bodies that deposit typed side results (one writer
// per slot, read only after the run returns).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep_runner.hpp"
#include "exp/context_config.hpp"
#include "exp/param_set.hpp"

namespace emc::exp {

/// Thrown when a body names a column that is not in the schema.
class SchemaError : public std::runtime_error {
 public:
  explicit SchemaError(const std::string& what) : std::runtime_error(what) {}
};

/// Cartesian scenario-grid builder. Axes are added with over(); build()
/// emits one ParamSet per grid point with the first axis varying slowest
/// — deterministic, so scenario indices are stable across runs and
/// thread counts. Explicit (non-cartesian) points can be appended with
/// add(); they follow the cartesian block in insertion order.
class Grid {
 public:
  Grid& over(const std::string& name, std::vector<double> values);
  Grid& over(const std::string& name, std::vector<int> values);
  Grid& over(const std::string& name, std::vector<std::string> values);
  Grid& over(const std::string& name, std::initializer_list<double> values) {
    return over(name, std::vector<double>(values));
  }
  /// Brace-listed integer literals stay an *integer* axis (without this
  /// overload {1, 2, 3} would convert to the double list and a typed
  /// get<int> on the axis would throw at sweep time).
  Grid& over(const std::string& name, std::initializer_list<int> values) {
    return over(name, std::vector<int>(values));
  }

  /// Append one explicit scenario (after any cartesian block).
  Grid& add(ParamSet point);

  /// Number of scenarios build() will emit.
  std::size_t size() const;

  /// Axis names in over() order.
  std::vector<std::string> axis_names() const;

  std::vector<ParamSet> build() const;

 private:
  struct Axis {
    std::string name;
    std::vector<ParamSet::Value> values;
  };
  std::vector<Axis> axes_;
  std::vector<ParamSet> extra_;
};

class Workbench;

/// Handle to one table row being filled by a body. Cells are addressed
/// by column name and rendered with the same formatting helpers the
/// benches used (`Table::num` for doubles, `to_string` for integers), so
/// ported benches emit byte-identical CSV artifacts.
class Row {
 public:
  Row& set(const std::string& column, std::string value);
  Row& set(const std::string& column, const char* value) {
    return set(column, std::string(value));
  }
  Row& set(const std::string& column, double value, int precision = 4);
  Row& set(const std::string& column, std::uint64_t value) {
    return set(column, std::to_string(value));
  }
  Row& set(const std::string& column, std::int64_t value) {
    return set(column, std::to_string(value));
  }
  Row& set(const std::string& column, int value) {
    return set(column, static_cast<std::int64_t>(value));
  }
  Row& set(const std::string& column, unsigned value) {
    return set(column, static_cast<std::uint64_t>(value));
  }

 private:
  friend class Recorder;
  // Indexed (not pointer-to-element) so handles stay valid when the body
  // opens further rows and the row storage reallocates.
  Row(std::vector<std::vector<std::string>>* rows, std::size_t row,
      const std::vector<std::string>* schema)
      : rows_(rows), row_(row), schema_(schema) {}
  std::vector<std::vector<std::string>>* rows_;
  std::size_t row_;
  const std::vector<std::string>* schema_;
};

/// Per-scenario output sink handed to the body: named rows bound to the
/// Workbench schema, kernel-stat accumulation, and the scenario index.
class Recorder {
 public:
  /// Start a new row (cells default to "-"); returns a handle to fill it.
  Row row();

  /// Fold a kernel's execution stats into the sweep totals.
  void add_stats(const sim::Kernel::Stats& s) { output_.stats += s; }

  /// Index of this scenario (grid point x trials + trial) — the slot
  /// typed side results belong to.
  std::size_t index() const { return index_; }

 private:
  friend class Workbench;
  Recorder(const std::vector<std::string>* schema, std::size_t index)
      : schema_(schema), index_(index) {}

  const std::vector<std::string>* schema_;
  std::size_t index_;
  analysis::ScenarioOutput output_;
};

class Workbench {
 public:
  /// `name` labels the experiment and names the default CSV artifact
  /// ("<name>.csv").
  explicit Workbench(std::string name);

  /// The scenario grid (in-place builder).
  Grid& grid() { return grid_; }

  /// Replace the grid with an explicit scenario list.
  Workbench& scenarios(std::vector<ParamSet> sets);

  /// The table schema: named columns, in output order.
  Workbench& columns(std::vector<std::string> names);

  /// Monte-Carlo replication: run every grid point `n_trials` times.
  /// Each replica is a plain scenario — the grid point's parameters plus
  /// a "trial" index and a "trial_seed" derived as
  /// sim::derive_seed(base_seed, trial) — so the SweepRunner
  /// parallelizes replicas exactly like scenarios and the byte-identical
  /// CSV contract holds at any thread count. The trial axis is fastest
  /// (replicas of a point are adjacent rows, ready for
  /// analysis::Aggregate), and trial t has the *same* seed at every grid
  /// point: one virtual chip swept across the grid (common random
  /// numbers). Bodies route the seed with
  /// `ContextConfig::trial(params)` or read "trial_seed" directly.
  Workbench& replicate(std::size_t n_trials, std::uint64_t base_seed);

  /// Replication factor (1 = no replication).
  std::size_t trials() const { return trials_; }

  /// The column schema (what sink rows are ordered by).
  const std::vector<std::string>& schema() const { return columns_; }

  /// Worker-thread override (0 = EMC_SWEEP_THREADS / hardware, the
  /// SweepRunner default).
  Workbench& threads(unsigned n);

  using Body = std::function<void(const ParamSet&, Recorder&)>;

  /// Row sink for run_streaming: receives each produced row (cells in
  /// schema order) tagged with its scenario index (grid point x trials
  /// + trial).
  using RowSink =
      std::function<void(std::size_t, const std::vector<std::string>&)>;

  /// Run the body once per scenario: scenarios are enumerated lazily
  /// (one ParamSet exists per in-flight scenario), bodies run on the
  /// worker pool, and every produced row is handed to `sink` on the
  /// calling thread in scenario order, then dropped. Memory is
  /// O(threads + sink state) instead of O(rows): the path that makes
  /// 10^6-trial replicated runs possible. The returned report carries
  /// scenario count, threads, wall time and kernel stats; its table has
  /// headers but no rows, and scenario_params() is empty. Throws
  /// std::overflow_error when points x trials does not fit a size_t.
  const analysis::SweepReport& run_streaming(const RowSink& sink,
                                             const Body& body);

  /// run_streaming() with a sink that appends every row to the report's
  /// table, readable afterwards via report() / table(); scenario_params()
  /// then lists the scenarios that ran, in scenario order.
  const analysis::SweepReport& run(const Body& body);

  const std::string& name() const { return name_; }
  const std::vector<ParamSet>& scenario_params() const { return params_; }
  const analysis::SweepReport& report() const { return report_; }
  const analysis::Table& table() const { return report_.table; }

  /// Write the run's table to `<name>.csv` (or an explicit path),
  /// printing a warning on I/O failure. Returns success.
  bool write_csv();
  bool write_csv(const std::string& path);

 private:
  /// Grid points before the trial axis: the scenarios() list, or the
  /// built grid.
  std::vector<ParamSet> points() const;
  /// Scenario of `point` at trial `t`: the point's parameters plus,
  /// under replication, "trial" and "trial_seed" — the one place the
  /// trial axis is expanded.
  ParamSet expand_trial(const ParamSet& point, std::size_t t) const;

  std::string name_;
  Grid grid_;
  std::vector<ParamSet> params_;           // run()'s scenarios, in order
  std::vector<ParamSet> explicit_params_;  // scenarios() input, pre-expansion
  bool explicit_scenarios_ = false;
  std::vector<std::string> columns_;
  std::size_t trials_ = 1;
  std::uint64_t base_seed_ = 0;
  analysis::SweepRunner::Options opt_;
  analysis::SweepReport report_;
};

}  // namespace emc::exp
