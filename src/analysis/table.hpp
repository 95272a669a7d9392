// Aligned console tables for the figure/table benches.
//
// Every bench prints the paper's rows plus a "paper vs measured" footer;
// this helper keeps the output disciplined and diff-friendly.
#pragma once

#include <string>
#include <vector>

namespace emc::analysis {

class Table {
 public:
  /// Headerless table; usable once headers are assigned from another
  /// Table (SweepReport aggregation builds tables this way).
  Table() = default;

  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Numeric convenience: formats with %g-style precision.
  static std::string num(double v, int precision = 4);

  /// Render with column alignment.
  std::string to_string() const;

  /// Render as CSV (for plotting scripts).
  std::string to_csv() const;

  /// Write the CSV rendering to `path`, warning on stderr on I/O
  /// failure. Returns success.
  [[nodiscard]] bool write_csv(const std::string& path) const;

  void print() const;

  // --- cell access (tests compare a table's cells) ---
  const std::vector<std::string>& headers() const { return headers_; }
  std::size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner for bench output.
void print_banner(const std::string& title);

/// One "paper says X, we measured Y" comparison line.
void print_anchor(const std::string& what, double paper, double measured,
                  const std::string& unit);

}  // namespace emc::analysis
