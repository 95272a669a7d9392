// Analysis-utility tests: accumulators, percentiles, the Vdd grid,
// tables, CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/aggregate.hpp"
#include "analysis/csv.hpp"
#include "analysis/stats.hpp"
#include "analysis/sweep.hpp"
#include "analysis/table.hpp"
#include "sim/random.hpp"

namespace emc::analysis {
namespace {

TEST(Accumulator, Moments) {
  Accumulator a;
  for (double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_NEAR(a.stddev(), 1.1180, 1e-3);
  Accumulator empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);
}

TEST(Percentile, InterpolatesSorted) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Correlation, PerfectAndNone) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  std::vector<double> z{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(x, z), 0.0);
}

TEST(Sweep, VddGridContainsAnchors) {
  const auto g = vdd_grid();
  auto has = [&](double x) {
    for (double v : g) {
      if (std::fabs(v - x) < 1e-9) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(0.19));
  EXPECT_TRUE(has(0.4));
  EXPECT_TRUE(has(1.0));
  EXPECT_TRUE(std::is_sorted(g.begin(), g.end()));
}

TEST(Table, AlignsAndCsv) {
  Table t({"vdd", "value"});
  t.add_row({"1.0", "5.8"});
  t.add_row({"0.4", "1.9"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| vdd"), std::string::npos);
  EXPECT_NE(s.find("| 0.4"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "vdd,value\n1.0,5.8\n0.4,1.9\n");
  EXPECT_EQ(Table::num(5.8), "5.8");
}

std::string printf_g(double v, int precision) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

/// Values the formatter must render exactly as printf does: random
/// doubles spanning 1e-300..1e300 of both signs, rounding boundaries,
/// signed zeros, denormals, the extremes, infinities and NaNs.
std::vector<double> formatter_corpus() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {9.99995,
                           0.000123445,
                           0.5,
                           2.5,
                           1e15,
                           1e16,
                           123456789.0,
                           0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           2.2250738585072009e-308,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           kInf,
                           -kInf,
                           kNan,
                           -kNan};
  sim::Rng rng(2026);
  for (int i = 0; i < 2000; ++i) {
    const double mantissa = rng.uniform(1.0, 10.0);
    const double exponent = std::floor(rng.uniform(-300.0, 301.0));
    const double x = mantissa * std::pow(10.0, exponent);
    v.push_back(rng.uniform() < 0.5 ? -x : x);
  }
  return v;
}

TEST(Table, NumMatchesPrintfAtEveryPrecision) {
  for (double v : formatter_corpus()) {
    for (int p = 0; p <= 17; ++p) {
      ASSERT_EQ(Table::num(v, p), printf_g(v, p)) << "precision " << p;
    }
  }
  // Precisions far past 17 print the exact decimal expansion.
  for (double v : {std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::max(), 0.1, -1.0 / 3.0}) {
    for (int p : {40, 100, 800}) {
      EXPECT_EQ(Table::num(v, p), printf_g(v, p)) << "precision " << p;
    }
  }
  EXPECT_EQ(Table::num(9.99995, 5), "10");
  EXPECT_EQ(Table::num(0.000123445, 5), "0.00012344");
}

/// Every cell shape the writers emit: Table::num at every precision over
/// the formatter corpus, and integer cells as std::to_string renders them.
std::vector<std::string> writer_cells() {
  std::vector<std::string> cells;
  for (double v : formatter_corpus()) {
    for (int p = 0; p <= 17; ++p) cells.push_back(Table::num(v, p));
  }
  for (long long i : {0LL, 1LL, -1LL, 42LL, -9223372036854775807LL - 1}) {
    cells.push_back(std::to_string(i));
  }
  cells.push_back(std::to_string(std::numeric_limits<std::uint64_t>::max()));
  return cells;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

TEST(Table, FromCharsReadsWriterCellsAsStrtodDoes) {
  for (const std::string& cell : writer_cells()) {
    const double want = std::strtod(cell.c_str(), nullptr);
    double got = 0.0;
    const auto res =
        std::from_chars(cell.data(), cell.data() + cell.size(), got);
    if (res.ec == std::errc::result_out_of_range) continue;  // see below
    ASSERT_EQ(res.ec, std::errc()) << cell;
    EXPECT_EQ(res.ptr, cell.data() + cell.size()) << cell;
    EXPECT_TRUE(same_double(got, want)) << cell;
  }
}

TEST(AggregateSink, ParsesWriterCellsAsStrtodDoes) {
  // One group per cell; at 17 digits the mean of a single value prints
  // back exactly, so the sink's reading of the cell is observable. This
  // covers the out-of-range shapes (e.g. "2e+308") that from_chars
  // refuses and the sink must still read as strtod does.
  const std::vector<std::string> cells = writer_cells();
  const Aggregate spec =
      Aggregate({"cell"}).stats("v").yield("v").precision(17);
  Aggregate::Sink sink = spec.sink({"cell", "v"});
  std::vector<std::string> seen;
  std::unordered_set<std::string> distinct;
  for (const std::string& cell : cells) {
    if (!distinct.insert(cell).second) continue;
    seen.push_back(cell);
    sink.consume({cell, cell});
  }
  const Table out = sink.finish();
  ASSERT_EQ(out.row_count(), seen.size());
  for (std::size_t r = 0; r < seen.size(); ++r) {
    const double want = std::strtod(seen[r].c_str(), nullptr);
    // The mean of one value v accumulates as 0 + v, so "-0" reads as 0.
    EXPECT_EQ(out.row(r)[2], Table::num(0.0 + want, 17)) << seen[r];
    EXPECT_EQ(out.row(r)[7], want != 0.0 ? "1" : "0") << seen[r];
  }
}

TEST(AggregateSink, DashAndEmptyCellsStayNonNumeric) {
  Aggregate::Sink sink =
      Aggregate({"k"}).stats("v").yield("v").sink({"k", "v"});
  sink.consume({"a", "-"});
  sink.consume({"a", ""});
  const Table out = sink.finish();
  ASSERT_EQ(out.row_count(), 1u);
  EXPECT_EQ(out.row(0)[1], "2");  // both rows counted as trials...
  for (std::size_t c = 2; c < out.headers().size(); ++c) {
    EXPECT_EQ(out.row(0)[c], "-") << out.headers()[c];  // ...none as values
  }
}

TEST(AggregateSink, GroupsThatRecurAfterAnotherFoldIntoTheirFirstRow) {
  // Keys A, B, A, and a key sharing A's first cell: the previous-group
  // check must fall back to the full lookup, never extend the wrong
  // group. The reduction equals the historical one-map implementation.
  Aggregate::Sink sink = Aggregate({"k", "m"})
                             .stats("v")
                             .yield("ok")
                             .sink({"k", "m", "v", "ok"});
  sink.consume({"A", "1", "1", "1"});
  sink.consume({"A", "1", "3", "0"});
  sink.consume({"B", "1", "10", "1"});
  sink.consume({"A", "1", "5", "1"});
  sink.consume({"A", "2", "7", "1"});
  sink.consume({"B", "1", "20", "0"});
  EXPECT_EQ(sink.rows(), 6u);
  EXPECT_EQ(sink.groups(), 3u);
  EXPECT_EQ(sink.finish().to_csv(),
            "k,m,trials,v_mean,v_stddev,v_p5,v_p50,v_p95,ok_yield\n"
            "A,1,3,3,1.633,1.2,3,4.8,0.6667\n"
            "B,1,2,15,5,10.5,15,19.5,0.5\n"
            "A,2,1,7,0,7,7,7,1\n");
}

TEST(Csv, StreamMatchesTableCsv) {
  const std::string path = ::testing::TempDir() + "/emc_stream.csv";
  Table t({"a", "b", "c"});
  t.add_row({"1", "", "x"});
  t.add_row({"0.25", "-", "a longer cell than the first row's"});
  {
    CsvStream out(path, t.headers());
    for (std::size_t r = 0; r < t.row_count(); ++r) out.row(t.row(r));
    ASSERT_TRUE(out.close());
    EXPECT_EQ(out.rows(), 2u);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, t.to_csv());
  std::remove(path.c_str());
}

TEST(Csv, WritesFile) {
  Table w({"a", "b"});
  w.add_row({Table::num(1.0, 6), Table::num(2.0, 6)});
  w.add_row({Table::num(3.0, 6), Table::num(4.0, 6)});
  const std::string path = ::testing::TempDir() + "/emc_analysis.csv";
  ASSERT_TRUE(w.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

// The figures write numeric CSV cells as Table::num(v, 6): the same bytes
// an ostream prints at its default precision, which the recorded refs
// were written with.
TEST(Csv, SixDigitCellsMatchStreamDefault) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0.0, -0.0, 1.0, 0.05, 1.0 / 3.0, 123456.0,
                         1234567.0, 1e-5, 2.5e-12, -7.125e21, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::ostringstream os;
    os << v;
    EXPECT_EQ(Table::num(v, 6), os.str()) << v;
  }
}

// /dev/full accepts the open and every buffered write; only the final
// flush fails, so each writer must close its stream before reporting.
TEST(Csv, WritersReportAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_FALSE(t.write_csv("/dev/full"));
  CsvStream s("/dev/full", {"a", "b"});
  s.row({"1", "2"});
  EXPECT_FALSE(s.close());
}

}  // namespace
}  // namespace emc::analysis
