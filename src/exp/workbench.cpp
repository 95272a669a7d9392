#include "exp/workbench.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "analysis/table.hpp"
#include "sim/random.hpp"

namespace emc::exp {

namespace {

/// A duplicate axis name is a mislabeled grid — the later axis would
/// silently overwrite the earlier one's value in every ParamSet.
void require_fresh_axis(
    const std::vector<std::string>& existing, const std::string& name) {
  for (const auto& e : existing) {
    if (e == name) {
      throw SchemaError("Grid: duplicate axis \"" + name + "\"");
    }
  }
}

}  // namespace

Grid& Grid::over(const std::string& name, std::vector<double> values) {
  require_fresh_axis(axis_names(), name);
  Axis a{name, {}};
  a.values.reserve(values.size());
  for (double v : values) a.values.emplace_back(v);
  axes_.push_back(std::move(a));
  return *this;
}

Grid& Grid::over(const std::string& name, std::vector<int> values) {
  require_fresh_axis(axis_names(), name);
  Axis a{name, {}};
  a.values.reserve(values.size());
  for (int v : values) a.values.emplace_back(static_cast<std::int64_t>(v));
  axes_.push_back(std::move(a));
  return *this;
}

Grid& Grid::over(const std::string& name, std::vector<std::string> values) {
  require_fresh_axis(axis_names(), name);
  Axis a{name, {}};
  a.values.reserve(values.size());
  for (auto& v : values) a.values.emplace_back(std::move(v));
  axes_.push_back(std::move(a));
  return *this;
}

std::vector<std::string> Grid::axis_names() const {
  std::vector<std::string> out;
  out.reserve(axes_.size());
  for (const auto& a : axes_) out.push_back(a.name);
  return out;
}

std::size_t Grid::size() const {
  std::size_t n = axes_.empty() ? 0 : 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

std::vector<ParamSet> Grid::build() const {
  std::vector<ParamSet> out;
  out.reserve(size());
  // An empty axis makes the cartesian product empty (size() already
  // reports 0); only a grid whose every axis has points emits scenarios.
  bool product_nonempty = !axes_.empty();
  for (const auto& a : axes_) {
    if (a.values.empty()) product_nonempty = false;
  }
  if (product_nonempty) {
    // Odometer over the axes: the first axis is the slowest digit, so
    // scenario order reads like nested for-loops written in over() order.
    std::vector<std::size_t> idx(axes_.size(), 0);
    for (;;) {
      ParamSet p;
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const auto& axis = axes_[a];
        const auto& v = axis.values[idx[a]];
        switch (v.index()) {
          case 0:
            p.set(axis.name, std::get<double>(v));
            break;
          case 1:
            p.set(axis.name, std::get<std::int64_t>(v));
            break;
          default:
            p.set(axis.name, std::get<std::string>(v));
            break;
        }
      }
      out.push_back(std::move(p));
      // Increment the odometer from the last (fastest) axis; wrapping
      // the slowest digit means the grid is exhausted.
      std::size_t a = axes_.size();
      bool done = true;
      while (a > 0) {
        --a;
        if (++idx[a] < axes_[a].values.size()) {
          done = false;
          break;
        }
        idx[a] = 0;
      }
      if (done) break;
    }
  }
  return out;
}

Row& Row::set(std::string_view column, std::string value) {
  const std::vector<std::string>& schema = *schema_;
  std::size_t i = next_;
  if (i >= schema.size() || schema[i] != column) {
    i = 0;
    while (i < schema.size() && schema[i] != column) ++i;
  }
  if (i == schema.size()) {
    std::string known;
    for (const auto& c : schema) {
      known += known.empty() ? "\"" : ", \"";
      known += c + "\"";
    }
    throw SchemaError("Workbench: unknown column \"" + std::string(column) +
                      "\" (schema: " +
                      (known.empty() ? std::string("empty") : known) + ")");
  }
  (*rows_)[row_][i] = std::move(value);
  next_ = i + 1;
  return *this;
}

Row& Row::set(std::string_view column, double value, int precision) {
  return set(column, analysis::Table::num(value, precision));
}

Row Recorder::row() {
  output_->add_row(schema_->size());
  return Row(&output_->rows, output_->row_count - 1, schema_);
}

Workbench::Workbench(std::string name) : name_(std::move(name)) {}

Workbench& Workbench::columns(std::vector<std::string> names) {
  columns_ = std::move(names);
  return *this;
}

Workbench& Workbench::threads(unsigned n) {
  threads_ = n;
  return *this;
}

Workbench& Workbench::replicate(std::size_t n_trials, std::uint64_t base_seed) {
  trials_ = n_trials == 0 ? 1 : n_trials;
  replicated_ = true;
  base_seed_ = base_seed;
  return *this;
}

std::uint64_t Workbench::trial_seed(std::size_t t) const {
  // Seeds depend on (base_seed, trial) only, so trial t is the same
  // virtual chip at every grid point.
  return sim::derive_seed(base_seed_, t) >> 1;
}

void Workbench::set_trial(ParamSet& scenario, std::size_t t) const {
  if (replicated_) {
    scenario.set("trial", static_cast<std::int64_t>(t));
    scenario.set("trial_seed", static_cast<std::int64_t>(trial_seed(t)));
  }
}

const analysis::SweepReport& Workbench::run_streaming(const RowSink& sink,
                                                      const Body& body) {
  // Lazy enumeration: grid points are materialized (a handful), but the
  // (point, trial) product never is — each sweep thread fills its own
  // ParamSet for the scenario it produces.
  const std::vector<ParamSet> pts = grid_.build();
  params_.clear();
  if (!pts.empty() &&
      trials_ > std::numeric_limits<std::size_t>::max() / pts.size()) {
    throw std::overflow_error(name_ + ": " + std::to_string(pts.size()) +
                              " points x " + std::to_string(trials_) +
                              " trials overflows the scenario count");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n = pts.size() * trials_;
  report_ = analysis::SweepReport();
  report_.table = analysis::Table(columns_);
  report_.scenarios = n;
  report_.threads = static_cast<unsigned>(
      std::min<std::size_t>(analysis::SweepRunner::resolve_threads(threads_),
                            std::max<std::size_t>(n, 1)));
  // Per-thread scenario parameters, for this call only: a thread's
  // ParamSet is copied from the grid when its next scenario lies at
  // another point than its last (threads claim ascending indices, so
  // once per point or block), and only the trial keys change in between.
  struct Scenario {
    ParamSet params;
    std::size_t point = std::numeric_limits<std::size_t>::max();
  };
  std::vector<Scenario> scenarios(report_.threads);
  analysis::SweepRunner::for_indexed_streaming(
      n, report_.threads,
      [&](std::size_t i, unsigned thread, analysis::ScenarioOutput& out) {
        Scenario& s = scenarios[thread];
        const std::size_t point = i / trials_;
        if (s.point != point) {
          s.params = pts[point];
          s.point = point;
        }
        set_trial(s.params, i % trials_);
        Recorder rec(&columns_, i, &out);
        body(s.params, rec);
      },
      [&](std::size_t i, const analysis::ScenarioOutput& out) {
        report_.kernel_stats += out.stats;
        for (std::size_t r = 0; r < out.row_count; ++r) sink(i, out.rows[r]);
      });
  report_.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  return report_;
}

const analysis::SweepReport& Workbench::run(const Body& body) {
  analysis::Table table(columns_);
  run_streaming(
      [&](std::size_t, const std::vector<std::string>& row) {
        table.add_row(row);
      },
      body);
  report_.table = std::move(table);
  for (const ParamSet& p : grid_.build()) {
    for (std::size_t t = 0; t < trials_; ++t) {
      params_.push_back(p);
      set_trial(params_.back(), t);
    }
  }
  return report_;
}

bool Workbench::write_csv() { return write_csv(name_ + ".csv"); }

bool Workbench::write_csv(const std::string& path) {
  return report_.table.write_csv(path);
}

}  // namespace emc::exp
