#include "analysis/table.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace emc::analysis {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  // to_chars(general, p) is specified as printf("%.*g", p) in the C
  // locale, without printf's format parsing. At any precision the
  // rendering fits 774 chars: sign, 767 significant digits (the longest
  // exact decimal expansion of a double), point and "e-308".
  char buf[774];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                    precision);
  return std::string(buf, res.ptr);
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << cells[c];
      os << std::string(width[c] - cells[c].size() + 1, ' ');
    }
    os << "|\n";
  };
  emit(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ',';
      os << cells[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

bool Table::write_csv(const std::string& path) const {
  // Close before checking: a full device fails on the final flush.
  std::ofstream out(path);
  out << to_csv();
  out.close();
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

void Table::print() const { std::cout << to_string() << std::flush; }

void print_banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

void print_anchor(const std::string& what, double paper, double measured,
                  const std::string& unit) {
  const double rel =
      paper != 0.0 ? 100.0 * (measured - paper) / paper : 0.0;
  std::printf("  anchor  %-52s paper %10.4g %-4s measured %10.4g %-4s (%+.1f%%)\n",
              what.c_str(), paper, unit.c_str(), measured, unit.c_str(), rel);
}

}  // namespace emc::analysis
