// [8] follow-up — SI SRAM failure / corner analysis, replicated.
//
// Process corners as a typed string-valued exp::Workbench grid, now with
// a Monte-Carlo trial axis on top: each (corner, trial) scenario samples
// the section's worst cell from its counter-based seed stream and
// reports the *distribution* of the read floor and read delays at that
// corner — the corner spread (global) and the mismatch spread (local)
// composed, which is exactly what completion detection absorbs and what
// a bundled design would have to margin for at the worst corner AND the
// worst chip.
//
// The section's worst cell does not depend on the corner (the mismatch
// is local only), so each chip is drawn once, before the sweep
// (exp::Workbench::per_trial, 8 B per trial); each corner's tech,
// models and nominal report are built once per run. A row only
// evaluates its corner's read floor and delays at its chip's worst cell.
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aggregate.hpp"
#include "device/variation.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/replicated.hpp"
#include "sram/failure.hpp"
#include "sram/si_controller.hpp"

namespace {
constexpr std::size_t kTrials = 24;
constexpr double kVthSigma = 0.020;  // 20 mV local cell mismatch
constexpr std::uint64_t kCellBaseId = 0;

/// One process corner, built once per run: its delay, cell and
/// bit-line models (each holds a pointer to the one before, so a Corner
/// stays where it was built) and its mismatch-free nominal report.
struct Corner {
  Corner(const emc::device::Tech& tech, emc::sram::CornerReport report)
      : model(tech),
        cell(model, emc::sram::CellParams{}),
        bitline(cell, emc::sram::BitlineParams{}),
        nominal(std::move(report)) {}
  Corner(const Corner&) = delete;
  Corner& operator=(const Corner&) = delete;

  emc::device::DelayModel model;
  emc::sram::CellModel cell;
  emc::sram::BitlineDynamics bitline;
  emc::sram::CornerReport nominal;
};

/// Trials -> distribution reduction (the figure's registered trial
/// model).
emc::analysis::Aggregate tab_sram_corners_aggregate() {
  return emc::analysis::Aggregate({"corner"})
      .stats("min_read_V")
      .stats("read@0.19V_us")
      .stats("ratio@0.19V")
      .precision(4);
}

}  // namespace

static int run_tab_sram_corners(const emc::repro::RunContext& ctx) {
  using namespace emc;
  analysis::print_banner(
      "Table — SI SRAM corner & failure analysis (Monte-Carlo)");

  exp::Workbench wb("tab_sram_corners_trials");
  wb.threads(ctx.threads);
  // Grid axis AND per-corner tech both come from the producer's
  // corner_techs(), so a corner added or renamed in
  // sram::FailureAnalysis can neither silently drop out of the table
  // nor be computed at the wrong technology.
  const auto techs = sram::FailureAnalysis::corner_techs();
  // One nominal report per corner_techs() entry, in the same order.
  const std::vector<sram::CornerReport> nominal =
      sram::FailureAnalysis().corners();
  std::deque<Corner> corners;
  std::vector<std::string> corner_names;
  for (std::size_t i = 0; i < techs.size(); ++i) {
    corners.emplace_back(techs[i].second, nominal[i]);
    corner_names.push_back(techs[i].first);
  }
  wb.grid().over("corner", corner_names);
  wb.replicate(ctx.trials_or(kTrials), ctx.seed);
  wb.columns({"corner", "trial", "min_read_V", "min_write_V", "retention_V",
              "read@1V_ns", "read@0.19V_us", "ratio@1V", "ratio@0.19V"});

  const device::Variation variation = device::Variation::local(kVthSigma);
  const std::size_t section = sram::BitlineParams{}.cells_per_section;
  // The worst sampled cell of each chip's section gates sensing and the
  // read.
  const std::vector<double> worst_vth =
      wb.per_trial([&](std::uint64_t seed) {
        return device::VariationSampler(variation, seed)
            .worst_vth(kCellBaseId, section);
      });

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const std::string corner = p.get<std::string>("corner");
    const Corner* k = nullptr;
    for (const Corner& c : corners) {
      if (c.nominal.corner == corner) k = &c;
    }
    if (k == nullptr) throw std::runtime_error("unknown corner: " + corner);
    const int trial = p.get<int>("trial");
    const double worst = worst_vth[static_cast<std::size_t>(trial)];
    const sram::BitlineDynamics& bl = k->bitline;
    rec.row()
        .set("corner", corner)
        .set("trial", trial)
        .set("min_read_V", k->cell.min_read_vdd(section, worst), 3)
        .set("min_write_V", k->nominal.min_write_vdd, 3)
        .set("retention_V", k->nominal.retention_vdd, 3)
        .set("read@1V_ns", bl.read_delay_seconds(1.0, worst) * 1e9, 4)
        .set("read@0.19V_us", bl.read_delay_seconds(0.19, worst) * 1e6, 4)
        .set("ratio@1V",
             bl.read_delay_seconds(1.0, worst) /
                 k->model.inverter_delay_seconds(1.0),
             4)
        .set("ratio@0.19V",
             bl.read_delay_seconds(0.19, worst) /
                 k->model.inverter_delay_seconds(0.19),
             4);
  };

  if (repro::run_replicated(ctx, "tab_sram_corners", wb, body) != 0) return 1;

  std::printf(
      "\nThe SI controller needs no corner-specific timing: completion "
      "detection absorbs\nthe full corner spread *and* the per-chip "
      "mismatch spread above (the bundled\nbaselines would need the slow "
      "corner's p95 margin and would waste it everywhere\nelse).\n");
  return 0;
}

static void lint_tab_sram_corners(emc::lint::Session& s) {
  // Corners change the tech parameters, not the controller structure —
  // one macro covers every corner.
  emc::sram::SiSram sram(s.ctx(), "sram", emc::sram::SiSramParams{});
  s.check(sram.circuit());
}

REPRO_FIGURE(tab_sram_corners)
    .title("Table [8] — SRAM corner + mismatch distributions (Monte-Carlo)")
    .ref_csv("tab_sram_corners.csv")
    .ref_csv("tab_sram_corners_trials.csv")
    .shard_model("tab_sram_corners_trials.csv", "tab_sram_corners.csv",
                 tab_sram_corners_aggregate)
    .seed(8)
    .lint(lint_tab_sram_corners)
    .run(run_tab_sram_corners);
