// Workbench — the experiment façade every bench runs through.
//
// A Workbench owns the three things a figure/table experiment needs
// beyond its physics body:
//   * grid construction — `grid().over("vdd", ...).over("quantum", ...)`
//     builds the cartesian scenario set (first axis slowest, later axes
//     fastest; purely deterministic);
//   * a typed column schema — bodies fill named columns through a
//     Recorder (`rec.row().set("vdd_V", v)`), and an unknown column name
//     throws instead of silently shifting cells;
//   * execution + artifacts — scenarios are enumerated lazily and run
//     through analysis::SweepRunner::for_indexed_streaming (its threads
//     and determinism contract: rows arrive in scenario order and are
//     byte-identical at any EMC_SWEEP_THREADS). run() collects them into
//     a table that prints / writes the CSV artifact; run_streaming()
//     hands them to a caller-supplied sink instead.
//
// The row path allocates nothing at steady state: each sweep thread
// keeps one scenario ParamSet, copied from the grid only when the
// thread moves to another grid point, with "trial"/"trial_seed"
// overwritten in place; rows are filled into recycled
// analysis::ScenarioOutput storage, their cells reset to "-".
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
#include <string_view>
#include <type_traits>
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
/// thread counts.
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
};

class Workbench;

/// Handle to one table row being filled by a body. Cells are addressed
/// by column name and rendered with the same formatting helpers the
/// benches used (`Table::num` for doubles, `to_string` for integers), so
/// ported benches emit byte-identical CSV artifacts. Bodies usually set
/// columns in schema order, so the column after the last one set is
/// tried before the schema is searched.
class Row {
 public:
  Row& set(std::string_view column, std::string value);
  Row& set(std::string_view column, const char* value) {
    return set(column, std::string(value));
  }
  Row& set(std::string_view column, double value, int precision = 4);
  Row& set(std::string_view column, std::uint64_t value) {
    return set(column, std::to_string(value));
  }
  Row& set(std::string_view column, std::int64_t value) {
    return set(column, std::to_string(value));
  }
  Row& set(std::string_view column, int value) {
    return set(column, static_cast<std::int64_t>(value));
  }
  Row& set(std::string_view column, unsigned value) {
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
  std::size_t next_ = 0;  // the column after the last one set
};

/// Per-scenario output sink handed to the body: named rows bound to the
/// Workbench schema, kernel-stat accumulation, and the scenario index.
class Recorder {
 public:
  /// Start a new row (cells default to "-"); returns a handle to fill it.
  Row row();

  /// Fold a kernel's execution stats into the sweep totals.
  void add_stats(const sim::Kernel::Stats& s) { output_->stats += s; }

  /// Index of this scenario (grid point x trials + trial) — the slot
  /// typed side results belong to.
  std::size_t index() const { return index_; }

 private:
  friend class Workbench;
  Recorder(const std::vector<std::string>* schema, std::size_t index,
           analysis::ScenarioOutput* output)
      : schema_(schema), index_(index), output_(output) {}

  const std::vector<std::string>* schema_;
  std::size_t index_;
  analysis::ScenarioOutput* output_;  // the sweep's recycled output
};

class Workbench {
 public:
  /// `name` labels the experiment and names the default CSV artifact
  /// ("<name>.csv").
  explicit Workbench(std::string name);

  /// The scenario grid (in-place builder).
  Grid& grid() { return grid_; }

  /// The table schema: named columns, in output order.
  Workbench& columns(std::vector<std::string> names);

  /// Monte-Carlo replication: run every grid point `n_trials` times.
  /// Each replica is a plain scenario — the grid point's parameters plus
  /// a "trial" index and a "trial_seed" derived as
  /// sim::derive_seed(base_seed, trial) — so the sweep pool
  /// parallelizes replicas exactly like scenarios and the byte-identical
  /// CSV contract holds at any thread count. The trial axis is fastest
  /// (replicas of a point are adjacent rows, ready for
  /// analysis::Aggregate), and trial t has the *same* seed at every grid
  /// point: one virtual chip swept across the grid (common random
  /// numbers). Bodies route the seed with
  /// `ContextConfig::trial(params)` or read "trial_seed" directly;
  /// draws that do not depend on the grid point belong in per_trial(). A
  /// replicated workbench carries both parameters at any trial count,
  /// 1 included (n_trials 0 is read as 1).
  Workbench& replicate(std::size_t n_trials, std::uint64_t base_seed);

  /// Replication factor (1 for a workbench that never replicated).
  std::size_t trials() const { return trials_; }

  /// The "trial_seed" every scenario of trial `t` carries:
  /// sim::derive_seed(base_seed, t), masked to the positive int64 range
  /// ParamSet integers live in. Pure in (base_seed, t); per_trial() is
  /// how a figure draws per-trial state from it once, outside its body.
  std::uint64_t trial_seed(std::size_t t) const;

  /// Per-trial precompute: `draw(trial_seed(t))` for every trial t,
  /// once, on as many threads as the sweep uses, returned as a table of
  /// trials() entries that the body indexes by its "trial" parameter.
  /// This is where a replicated figure draws the part of each virtual
  /// chip that does not depend on the grid point, instead of redrawing
  /// it in every row. `draw` runs concurrently, so it must be pure in
  /// its seed; the table is then the same at any thread count. The
  /// lowest trial's exception, if any, propagates. Memory: one entry per
  /// trial, held for the whole run (rows stream grid point by grid
  /// point, so trial t's entry is needed again trials() rows later).
  template <class Draw>
  auto per_trial(const Draw& draw) const
      -> std::vector<std::invoke_result_t<const Draw&, std::uint64_t>> {
    using Entry = std::invoke_result_t<const Draw&, std::uint64_t>;
    // vector<bool> packs entries into shared words: concurrent writes
    // to neighbouring trials would race.
    static_assert(!std::is_same_v<Entry, bool>,
                  "per_trial: return a struct or an int, not bool");
    std::vector<Entry> table(trials_);
    analysis::SweepRunner::for_indexed(
        trials_, analysis::SweepRunner::resolve_threads(threads_),
        [&](std::size_t t) { table[t] = draw(trial_seed(t)); });
    return table;
  }

  /// The column schema (what sink rows are ordered by).
  const std::vector<std::string>& schema() const { return columns_; }

  /// Worker-thread override (0 = EMC_SWEEP_THREADS, else the hardware;
  /// see SweepRunner::resolve_threads).
  Workbench& threads(unsigned n);

  using Body = std::function<void(const ParamSet&, Recorder&)>;

  /// Row sink for run_streaming: receives each produced row (cells in
  /// schema order) tagged with its scenario index (grid point x trials
  /// + trial).
  using RowSink =
      std::function<void(std::size_t, const std::vector<std::string>&)>;

  /// Run the body once per scenario: scenarios are enumerated lazily
  /// (each sweep thread holds one ParamSet, updated in place), bodies
  /// run on the sweep's threads, and every produced row is handed to
  /// `sink` on the calling thread in scenario order, then its storage is
  /// recycled. The ParamSet and row a body sees live only for its call.
  /// Memory is O(threads + sink state) instead of O(rows): the path that
  /// makes 10^6-trial replicated runs possible. The returned report carries
  /// scenario count, threads (at most one per scenario), wall time and
  /// summed kernel stats; its table has headers but no rows, and
  /// scenario_params() is empty. Throws
  /// std::overflow_error when points x trials does not fit a size_t.
  const analysis::SweepReport& run_streaming(const RowSink& sink,
                                             const Body& body);

  /// run_streaming() with a sink that appends every row to the report's
  /// table, readable afterwards via report() / table(); scenario_params()
  /// then lists the scenarios that ran, in scenario order.
  const analysis::SweepReport& run(const Body& body);

  const std::vector<ParamSet>& scenario_params() const { return params_; }
  const analysis::SweepReport& report() const { return report_; }
  const analysis::Table& table() const { return report_.table; }

  /// Write the run's table to `<name>.csv` (or an explicit path),
  /// printing a warning on I/O failure. Returns success.
  [[nodiscard]] bool write_csv();
  [[nodiscard]] bool write_csv(const std::string& path);

 private:
  /// Make `scenario` (a grid point's parameters) trial `t`: under
  /// replication, set "trial" and "trial_seed" in place — the one place
  /// the trial axis is expanded.
  void set_trial(ParamSet& scenario, std::size_t t) const;

  std::string name_;
  Grid grid_;
  std::vector<ParamSet> params_;  // run()'s scenarios, in order
  std::vector<std::string> columns_;
  std::size_t trials_ = 1;
  bool replicated_ = false;
  std::uint64_t base_seed_ = 0;
  unsigned threads_ = 0;
  analysis::SweepReport report_;
};

}  // namespace emc::exp
