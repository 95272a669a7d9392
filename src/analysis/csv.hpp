// Streaming CSV writer for experiment artifacts.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace emc::analysis {

/// Streaming CSV writer: header on open, one row per call, nothing
/// retained. The byte-for-byte equivalent of Table::to_csv() for rows
/// whose cell count matches the header (cells joined with ',', one
/// '\n' per line) — what the scale-out sweeps write their trial rows
/// through instead of materializing a Table.
class CsvStream {
 public:
  CsvStream(const std::string& path, const std::vector<std::string>& headers);

  /// Append one row. Cells must already be rendered (Table::num etc.).
  void row(const std::vector<std::string>& cells);

  std::size_t rows() const { return rows_; }

  /// Flush and close; false (with a warning on stderr) on I/O failure.
  /// Called from the destructor if not called explicitly.
  [[nodiscard]] bool close();

  ~CsvStream();
  CsvStream(const CsvStream&) = delete;
  CsvStream& operator=(const CsvStream&) = delete;

 private:
  std::string path_;
  std::ofstream out_;
  std::string line_;  // row assembly buffer, reused across rows
  std::size_t rows_ = 0;
  bool failed_ = false;
  bool closed_ = false;
};

}  // namespace emc::analysis
