// The streaming tail every replicated figure ends with.
//
// A replicated figure runs each grid point over N Monte-Carlo trials
// (exp::Workbench::replicate) and registers a trial model
// (FigureBuilder::shard_model): its per-trial CSV, its reduced CSV and
// the Aggregate spec between them. After building its Workbench and
// body, the figure hands both to run_replicated(), which
//   * streams every row, in scenario order, into the trial CSV and the
//     Aggregate sink as the workers produce it — memory is O(grid
//     points), not O(trials), so --trials scales to 10^6 chips in one
//     process;
//   * prints the reduced table and writes the reduced CSV;
//   * folds the sweep's kernel stats into the RunContext.
#pragma once

#include "exp/workbench.hpp"
#include "repro/registry.hpp"

namespace emc::repro {

/// Run `wb` over `body` as figure `figure`'s trial stream (see above).
/// Returns 0, or 1 when either CSV could not be written (the driver then
/// reports run_failed). Throws std::logic_error when `figure` is not
/// registered or registers no trial model.
int run_replicated(const RunContext& ctx, const char* figure,
                   exp::Workbench& wb, const exp::Workbench::Body& body);

}  // namespace emc::repro
