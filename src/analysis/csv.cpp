#include "analysis/csv.hpp"

#include <cstdio>
#include <fstream>

namespace emc::analysis {

namespace {

/// Join `cells` with ',' and a trailing '\n' into `line` (reused, so a
/// row costs one write and no allocation once the buffer has grown),
/// then write it.
void write_joined(std::ofstream& out, const std::vector<std::string>& cells,
                  std::string& line) {
  line.clear();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c > 0) line += ',';
    line += cells[c];
  }
  line += '\n';
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace

CsvStream::CsvStream(const std::string& path,
                     const std::vector<std::string>& headers)
    : path_(path), out_(path) {
  if (!out_) {
    failed_ = true;
    return;
  }
  write_joined(out_, headers, line_);
}

void CsvStream::row(const std::vector<std::string>& cells) {
  if (failed_ || closed_) return;
  write_joined(out_, cells, line_);
  ++rows_;
  if (!out_) failed_ = true;
}

bool CsvStream::close() {
  if (closed_) return !failed_;
  closed_ = true;
  if (!failed_) {
    out_.close();
    failed_ = !out_;
  }
  if (failed_) {
    std::fprintf(stderr, "warning: could not write %s\n", path_.c_str());
  }
  return !failed_;
}

CsvStream::~CsvStream() { (void)close(); }

}  // namespace emc::analysis
