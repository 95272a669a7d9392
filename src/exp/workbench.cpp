#include "exp/workbench.hpp"

#include <cstdio>
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

Grid& Grid::add(ParamSet point) {
  extra_.push_back(std::move(point));
  return *this;
}

std::size_t Grid::size() const {
  std::size_t n = axes_.empty() ? 0 : 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n + extra_.size();
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
          case 2:
            p.set(axis.name, std::get<bool>(v));
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
  for (const auto& p : extra_) out.push_back(p);
  return out;
}

Row& Row::set(const std::string& column, std::string value) {
  for (std::size_t i = 0; i < schema_->size(); ++i) {
    if ((*schema_)[i] == column) {
      (*rows_)[row_][i] = std::move(value);
      return *this;
    }
  }
  std::string known;
  for (const auto& c : *schema_) {
    known += known.empty() ? "\"" : ", \"";
    known += c + "\"";
  }
  throw SchemaError("Workbench: unknown column \"" + column + "\" (schema: " +
                    (known.empty() ? std::string("empty") : known) + ")");
}

Row& Row::set(const std::string& column, double value, int precision) {
  return set(column, analysis::Table::num(value, precision));
}

Row Recorder::row() {
  output_.rows.emplace_back(schema_->size(), "-");
  return Row(&output_.rows, output_.rows.size() - 1, schema_);
}

Workbench::Workbench(std::string name) : name_(std::move(name)) {}

Workbench& Workbench::scenarios(std::vector<ParamSet> sets) {
  explicit_params_ = std::move(sets);
  explicit_scenarios_ = true;
  return *this;
}

Workbench& Workbench::columns(std::vector<std::string> names) {
  columns_ = std::move(names);
  return *this;
}

Workbench& Workbench::threads(unsigned n) {
  opt_.threads = n;
  return *this;
}

Workbench& Workbench::replicate(std::size_t n_trials, std::uint64_t base_seed) {
  trials_ = n_trials == 0 ? 1 : n_trials;
  base_seed_ = base_seed;
  return *this;
}

std::vector<ParamSet> Workbench::points() const {
  return explicit_scenarios_ ? explicit_params_ : grid_.build();
}

ParamSet Workbench::expand_trial(const ParamSet& point, std::size_t t) const {
  ParamSet q = point;
  if (trials_ > 1) {
    // Seeds depend on (base_seed, trial) only, so trial t is the same
    // virtual chip at every grid point. Masked to the positive int64
    // range ParamSet integers live in.
    q.set("trial", static_cast<std::int64_t>(t));
    q.set("trial_seed",
          static_cast<std::int64_t>(sim::derive_seed(base_seed_, t) >> 1));
  }
  return q;
}

const analysis::SweepReport& Workbench::run_streaming(const RowSink& sink,
                                                      const Body& body) {
  // Lazy enumeration: grid points are materialized (a handful), but the
  // (point, trial) product never is — each scenario's ParamSet is built
  // inside produce() and dies with it.
  const std::vector<ParamSet> pts = points();
  params_.clear();
  if (!pts.empty() &&
      trials_ > std::numeric_limits<std::size_t>::max() / pts.size()) {
    throw std::overflow_error(name_ + ": " + std::to_string(pts.size()) +
                              " points x " + std::to_string(trials_) +
                              " trials overflows the scenario count");
  }

  analysis::SweepRunner runner(columns_, opt_);
  report_ = runner.run_streaming(
      pts.size() * trials_,
      [&](std::size_t i) {
        const ParamSet q = expand_trial(pts[i / trials_], i % trials_);
        Recorder rec(&columns_, i);
        body(q, rec);
        return std::move(rec.output_);
      },
      [&](std::size_t i, analysis::ScenarioOutput&& out) {
        for (const auto& row : out.rows) sink(i, row);
      });
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
  for (const ParamSet& p : points()) {
    for (std::size_t t = 0; t < trials_; ++t) {
      params_.push_back(expand_trial(p, t));
    }
  }
  return report_;
}

bool Workbench::write_csv() { return write_csv(name_ + ".csv"); }

bool Workbench::write_csv(const std::string& path) {
  const bool ok = report_.write_csv(path);
  if (!ok) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  return ok;
}

}  // namespace emc::exp
