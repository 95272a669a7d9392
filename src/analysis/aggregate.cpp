#include "analysis/aggregate.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace emc::analysis {

namespace {

std::size_t column_index(const std::vector<std::string>& headers,
                         const std::string& name) {
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (headers[i] == name) return i;
  }
  throw std::invalid_argument("Aggregate: column \"" + name +
                              "\" not in the input schema");
}

/// strtod's reading of a cell (a numeric prefix; "-" and other
/// non-numbers are not numeric) through from_chars, which neither parses
/// a format nor consults the locale.
bool parse_cell(const std::string& cell, double* out) {
  const char* first = cell.data();
  const auto res = std::from_chars(first, first + cell.size(), *out);
  if (res.ec == std::errc::result_out_of_range) {
    // from_chars leaves the value unset; strtod saturates to ±HUGE_VAL
    // or underflows toward 0, which is what the statistics saw before.
    *out = std::strtod(cell.c_str(), nullptr);
    return true;
  }
  return res.ec == std::errc();
}

}  // namespace

Aggregate::Aggregate(std::vector<std::string> group_by)
    : group_by_(std::move(group_by)) {}

Aggregate& Aggregate::stats(const std::string& column) {
  stats_cols_.push_back(column);
  return *this;
}

Aggregate& Aggregate::yield(const std::string& column) {
  yield_cols_.push_back(column);
  return *this;
}

Aggregate& Aggregate::precision(int digits) {
  precision_ = digits;
  return *this;
}

Aggregate::Sink::Sink(const Aggregate& spec,
                      const std::vector<std::string>& headers)
    : group_by_(spec.group_by_),
      stats_cols_(spec.stats_cols_),
      yield_cols_(spec.yield_cols_),
      precision_(spec.precision_) {
  for (const auto& c : group_by_) key_idx_.push_back(column_index(headers, c));
  for (const auto& c : stats_cols_) {
    stat_idx_.push_back(column_index(headers, c));
  }
  for (const auto& c : yield_cols_) {
    yield_idx_.push_back(column_index(headers, c));
  }
}

bool Aggregate::Sink::in_group(const Group& g,
                               const std::vector<std::string>& cells) const {
  for (std::size_t j = 0; j < key_idx_.size(); ++j) {
    if (g.key_cells[j] != cells[key_idx_[j]]) return false;
  }
  return true;
}

void Aggregate::Sink::consume(const std::vector<std::string>& cells) {
  // Replicated sweeps emit a group's rows back to back, so the previous
  // row's group is tried first, by comparing key cells. Otherwise the
  // joined key (cells never carry control characters, so the 0x1f join
  // is injective) is looked up in a map of first-appearance indices,
  // O(1) per row.
  if (last_ >= groups_.size() || !in_group(groups_[last_], cells)) {
    std::string key;
    for (std::size_t k : key_idx_) {
      key += cells[k];
      key += '\x1f';
    }
    const auto [it, fresh] =
        group_index_.emplace(std::move(key), groups_.size());
    if (fresh) {
      Group& g = groups_.emplace_back();
      for (std::size_t k : key_idx_) g.key_cells.push_back(cells[k]);
      g.stats.assign(stat_idx_.size(), StatsAccumulator());
      g.yields.assign(yield_idx_.size(), YieldCounter());
    }
    last_ = it->second;
  }
  Group* g = &groups_[last_];

  ++rows_;
  ++g->rows;
  for (std::size_t s = 0; s < stat_idx_.size(); ++s) {
    double v;
    if (parse_cell(cells[stat_idx_[s]], &v)) g->stats[s].add(v);
  }
  for (std::size_t y = 0; y < yield_idx_.size(); ++y) {
    double v;
    if (parse_cell(cells[yield_idx_[y]], &v)) g->yields[y].add(v != 0.0);
  }
}

Table Aggregate::Sink::finish() const {
  std::vector<std::string> headers = group_by_;
  headers.push_back("trials");
  for (const auto& c : stats_cols_) {
    headers.push_back(c + "_mean");
    headers.push_back(c + "_stddev");
    headers.push_back(c + "_p5");
    headers.push_back(c + "_p50");
    headers.push_back(c + "_p95");
  }
  for (const auto& c : yield_cols_) headers.push_back(c + "_yield");

  Table out(std::move(headers));
  for (const auto& g : groups_) {
    std::vector<std::string> row = g.key_cells;
    row.push_back(std::to_string(g.rows));
    for (const auto& acc : g.stats) {
      if (acc.count() == 0) {
        for (int i = 0; i < 5; ++i) row.emplace_back("-");
        continue;
      }
      const StatsAccumulator::Moments m = acc.moments();
      row.push_back(Table::num(m.mean, precision_));
      row.push_back(Table::num(m.stddev, precision_));
      const StatsAccumulator::Quantiles q = acc.quantiles();
      row.push_back(Table::num(q.p5, precision_));
      row.push_back(Table::num(q.p50, precision_));
      row.push_back(Table::num(q.p95, precision_));
    }
    for (const auto& yc : g.yields) {
      row.push_back(yc.total() == 0 ? std::string("-")
                                    : Table::num(yc.fraction(), precision_));
    }
    out.add_row(std::move(row));
  }
  return out;
}

Aggregate::Sink Aggregate::sink(const std::vector<std::string>& headers) const {
  return Sink(*this, headers);
}

}  // namespace emc::analysis
