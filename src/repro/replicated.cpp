#include "repro/replicated.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/csv.hpp"

namespace emc::repro {

int run_replicated(const RunContext& ctx, const char* figure,
                   exp::Workbench& wb, const exp::Workbench::Body& body) {
  const Figure* fig = Registry::instance().find(figure);
  if (fig == nullptr || !fig->replicated()) {
    throw std::logic_error(std::string("run_replicated: \"") + figure +
                           "\" registers no trial model");
  }
  analysis::CsvStream trials_out(fig->shard.trials_csv, wb.schema());
  analysis::Aggregate::Sink sink = fig->shard.aggregate().sink(wb.schema());
  const analysis::SweepReport& report = wb.run_streaming(
      [&](std::size_t, const std::vector<std::string>& cells) {
        trials_out.row(cells);
        sink.consume(cells);
      },
      body);
  ctx.add_stats(report.kernel_stats);
  const bool trials_ok = trials_out.close();

  const analysis::Table agg = sink.finish();
  agg.print();
  const bool agg_ok = agg.write_csv(fig->shard.aggregate_csv);
  return trials_ok && agg_ok ? 0 : 1;
}

}  // namespace emc::repro
