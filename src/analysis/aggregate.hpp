// Replicated-row reducer: Monte-Carlo trials in, distribution out.
//
// A replicated sweep (exp::Workbench::replicate) emits one row per
// (grid point, trial). Aggregate folds those back to one row per grid
// point: group rows by the key columns, then report each value column's
// distribution (mean / stddev / p5 / p50 / p95) and each pass-fail
// column's yield (fraction of trials with a non-zero value). Groups keep
// first-appearance order, so a deterministic input reduces to a
// deterministic output table — the aggregate CSV inherits the sweep's
// byte-identical-at-any-thread-count contract.
//
// Rows stream in: `sink(headers)` binds the column schema once and
// returns a Sink that consumes rows as the sweep produces them
// (exp::Workbench::run_streaming feeds it on the calling thread). A
// group's trials arrive back to back, so each row is first compared
// with the previous row's group key, cell by cell; only a row that
// opens another group builds a joined key and hashes it.
// Memory is O(groups): per group a hybrid StatsAccumulator per stats
// column (exact sample retention up to StatsAccumulator::kExactThreshold,
// then Welford + P² spill — see analysis/accumulator.hpp) plus a
// YieldCounter per yield column. A million-trial run never holds a
// million rows.
//
//   auto agg = analysis::Aggregate({"vdd_V"})
//                  .stats("ratio")
//                  .yield("read_ok");
//   auto sink = agg.sink(schema);        // streaming
//   sink.consume(cells);                 // ... once per row ...
//   analysis::Table out = sink.finish();
//   // columns: vdd_V, trials, ratio_mean, ratio_stddev, ratio_p5,
//   //          ratio_p50, ratio_p95, read_ok_yield
//
// Up to kExactThreshold rows per group (4096 — far above every
// recorded figure's trial count) the reduction is byte-identical
// to the historical sort-based implementation, so existing aggregate
// reference CSVs are unchanged. Cells that fail to parse as numbers
// (the "-" placeholder) are skipped; a group whose value column has no
// parsable cells reports "-".
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/accumulator.hpp"
#include "analysis/table.hpp"

namespace emc::analysis {

class Aggregate {
 public:
  /// `group_by` — key columns identifying a grid point (e.g. {"vdd_V"}).
  explicit Aggregate(std::vector<std::string> group_by);

  /// Report mean/stddev/p5/p50/p95 of a numeric column per group.
  Aggregate& stats(const std::string& column);

  /// Report the fraction of rows with a non-zero value per group
  /// ("<column>_yield") — the Monte-Carlo yield of a 0/1 pass column.
  Aggregate& yield(const std::string& column);

  /// Output precision for the reduced numeric cells (Table::num digits).
  Aggregate& precision(int digits);

  /// Streaming consumer bound to one input schema. Copies the spec, so
  /// it stays valid after the Aggregate it came from is gone.
  class Sink {
   public:
    /// Fold one row (cells in the bound schema's order) into its group.
    void consume(const std::vector<std::string>& cells);

    std::size_t rows() const { return rows_; }
    std::size_t groups() const { return groups_.size(); }

    /// The reduced table (groups in first-appearance order). The sink
    /// stays usable — finish() can be called repeatedly as a snapshot.
    Table finish() const;

   private:
    friend class Aggregate;
    Sink(const Aggregate& spec, const std::vector<std::string>& headers);

    struct Group {
      std::vector<std::string> key_cells;
      std::size_t rows = 0;
      std::vector<StatsAccumulator> stats;  // per stats column
      std::vector<YieldCounter> yields;     // per yield column
    };

    std::vector<std::string> group_by_;
    std::vector<std::string> stats_cols_;
    std::vector<std::string> yield_cols_;
    int precision_;
    std::vector<std::size_t> key_idx_;
    std::vector<std::size_t> stat_idx_;
    std::vector<std::size_t> yield_idx_;
    /// Whether `cells` carry `g`'s key.
    bool in_group(const Group& g, const std::vector<std::string>& cells) const;

    std::size_t rows_ = 0;
    std::vector<Group> groups_;  // first-appearance order
    std::unordered_map<std::string, std::size_t> group_index_;
    std::size_t last_ = 0;  // the previous row's group (none while empty)
  };

  /// Open a streaming sink over `headers` (the producer's row schema).
  /// Throws std::invalid_argument when a named column is missing.
  Sink sink(const std::vector<std::string>& headers) const;

 private:
  std::vector<std::string> group_by_;
  std::vector<std::string> stats_cols_;
  std::vector<std::string> yield_cols_;
  int precision_ = 4;
};

}  // namespace emc::analysis
